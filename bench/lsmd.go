package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server/api"
)

// lsmd is one running child daemon.
type lsmd struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *bytes.Buffer
	hc   *http.Client

	done    chan struct{} // closed once the process has been waited for
	waitErr error
}

// live holds the children that have been started and not yet waited for,
// so that a signal can end them before the benchmark itself goes.
var live struct {
	sync.Mutex
	m      map[*lsmd]struct{}
	closed bool // no child is started any more
}

// killLive ends every running child, waits until each has gone, and lets
// no other start.
func killLive() {
	live.Lock()
	live.closed = true
	ds := make([]*lsmd, 0, len(live.m))
	for d := range live.m {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// buildLsmd compiles ./cmd/lsmd of the repository at root into binDir.
// Build time is outside every measured interval, set-up included.
func buildLsmd(root, binDir string) (string, error) {
	bin := filepath.Join(binDir, "lsmd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lsmd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/lsmd: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startLsmd launches lsmd on dir and returns once /healthz answers.
func startLsmd(bin, dir string) (*lsmd, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &lsmd{base: "http://" + addr, log: new(bytes.Buffer), hc: &http.Client{Timeout: 60 * time.Second}}
	d.cmd = exec.Command(bin, lsmdFlags(addr, dir)...)
	// The environment is pinned: two procs, the collector at its default.
	d.cmd.Env = []string{"GOMAXPROCS=2", "PATH=" + os.Getenv("PATH")}
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	// Should the benchmark die without running its clean-up, the child goes
	// with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	live.Lock()
	if live.closed {
		live.Unlock()
		return nil, fmt.Errorf("start lsmd: the benchmark is stopping")
	}
	if err := d.cmd.Start(); err != nil {
		live.Unlock()
		return nil, fmt.Errorf("start lsmd: %w", err)
	}
	d.done = make(chan struct{})
	if live.m == nil {
		live.m = make(map[*lsmd]struct{})
	}
	live.m[d] = struct{}{}
	live.Unlock()
	go func() {
		d.waitErr = d.cmd.Wait()
		live.Lock()
		delete(live.m, d)
		live.Unlock()
		close(d.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := d.hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("lsmd exited before answering /healthz: %v\n%s", d.waitErr, d.log)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("lsmd did not answer /healthz: %v\n%s", err, d.log)
		}
	}
}

// stop asks for a graceful shutdown (drain, flush, close) and waits for it.
func (d *lsmd) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		if d.waitErr != nil {
			return fmt.Errorf("lsmd exit: %v\n%s", d.waitErr, d.log)
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("lsmd did not stop within 60s\n%s", d.log)
	}
}

// kill ends the process now and waits until it has gone.
func (d *lsmd) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// cpuSeconds is the child's utime+stime from /proc/<pid>/stat.
func (d *lsmd) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (ut + st) / clockTicks, nil
}

// peakRSSMiB is the child's VmHWM.
func (d *lsmd) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

func (d *lsmd) getJSON(path string, out any) error {
	resp, err := d.hc.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// snapshot is lsmd's own view of itself at one instant: /stats, the
// per-series read accounting, and every /metrics sample.
type snapshot struct {
	stats api.StatsResponse
	prom  map[string]float64
	reads api.ReadStatsJSON // summed over series
	cpu   float64
}

func (d *lsmd) snapshot(ids []string) (snapshot, error) {
	var s snapshot
	if err := d.getJSON("/stats", &s.stats); err != nil {
		return s, err
	}
	for _, id := range ids {
		var det api.SeriesDetailResponse
		if err := d.getJSON("/series/"+id+"/stats", &det); err != nil {
			return s, err
		}
		s.reads.Scans += det.Read.Scans
		s.reads.TablesTouched += det.Read.TablesTouched
		s.reads.TablePoints += det.Read.TablePoints
		s.reads.MemPoints += det.Read.MemPoints
		s.reads.ResultPoints += det.Read.ResultPoints
	}
	resp, err := d.hc.Get(d.base + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if s.prom, err = parseProm(resp.Body); err != nil {
		return s, err
	}
	s.cpu, err = d.cpuSeconds()
	return s, err
}

// parseProm reads Prometheus text exposition into name{labels} -> value.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// waitDrained polls until no L0 table is queued or being merged, so that
// write amplification and the directory size are read at rest.
func (d *lsmd) waitDrained(ctx context.Context) error {
	for {
		resp, err := d.hc.Get(d.base + "/metrics")
		if err != nil {
			return err
		}
		prom, err := parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if prom["lsmd_compaction_queued"] == 0 && prom["lsmd_compaction_running"] == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("compaction backlog did not drain: %w", ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
