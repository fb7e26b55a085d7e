package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// span is one timed interval of the traced run, recorded by the benchmark
// around a call into a layer. Spans of one request share Req; Parent is the
// span that caused this one.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 only for the root
	Req    int    `json:"req"`    // 0: not part of a request
	Name   string `json:"name"`
	Cause  string `json:"cause,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // points or bytes the call moved
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer holds every span in memory until the run ends. While off it
// records nothing, which is how the untraced leg of the same ops runs.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// cur is the layer span of the request in flight; storage calls made
	// meanwhile are its children. One client drives the traced run, so at
	// most one request is in flight.
	cur atomic.Int64
}

const (
	rootSpan   = 1
	ownRequest = -1 // begin: the new span starts a request of its own
)

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.spans = append(t.spans, span{ID: rootSpan, Name: "run"})
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// next is the ID the next span will get: the edge between two legs.
func (t *tracer) next() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + 1
}

// begin opens a span and returns its ID, or 0 while the tracer is off.
func (t *tracer) begin(name string, parent, req int, cause string) int {
	if !t.on.Load() {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	if req == ownRequest {
		req = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Cause: cause, Start: now})
	return id
}

func (t *tracer) end(id, n int) {
	if id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End, t.spans[id-1].N = now, n
	t.mu.Unlock()
}

// request opens the outermost span of one op and returns its ID, which is
// also the request identifier its children carry.
func (t *tracer) request() int { return t.begin("request", rootSpan, ownRequest, "") }

// layer opens the span of the layer call a request makes and makes it the
// parent of the storage calls that follow.
func (t *tracer) layer(name string, req int) int {
	id := t.begin(name, req, req, "")
	t.cur.Store(int64(id))
	return id
}

func (t *tracer) endLayer(id, n int) {
	t.cur.Store(0)
	t.end(id, n)
}

// storageCall opens a span for one backend call: a child of the request in
// flight, or of the root with cause "background" between requests.
func (t *tracer) storageCall(name string) int {
	if !t.on.Load() {
		return 0
	}
	if p := int(t.cur.Load()); p != 0 {
		t.mu.Lock()
		req := t.spans[p-1].Req
		t.mu.Unlock()
		return t.begin(name, p, req, "")
	}
	return t.begin(name, rootSpan, 0, "background")
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	t.spans[0].End = t.now()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedBackend is the benchmark's decorator around the store's backend:
// every call into the storage layer becomes a span.
type tracedBackend struct {
	inner storage.Backend
	t     *tracer
}

func (b *tracedBackend) Write(name string, data []byte) error {
	id := b.t.storageCall("storage.write")
	err := b.inner.Write(name, data)
	b.t.end(id, len(data))
	return err
}

func (b *tracedBackend) Read(name string) ([]byte, error) {
	id := b.t.storageCall("storage.read")
	data, err := b.inner.Read(name)
	b.t.end(id, len(data))
	return data, err
}

func (b *tracedBackend) Append(name string, data []byte) error {
	id := b.t.storageCall("storage.append")
	err := b.inner.Append(name, data)
	b.t.end(id, len(data))
	return err
}

func (b *tracedBackend) Remove(name string) error {
	id := b.t.storageCall("storage.remove")
	err := b.inner.Remove(name)
	b.t.end(id, 0)
	return err
}

func (b *tracedBackend) List() ([]string, error)         { return b.inner.List() }
func (b *tracedBackend) Size(name string) (int64, error) { return b.inner.Size(name) }

func (b *tracedBackend) OpenRange(name string) (storage.RangeReader, error) {
	r, err := b.inner.OpenRange(name)
	if err != nil {
		return nil, err
	}
	return &tracedRange{inner: r, t: b.t}, nil
}

type tracedRange struct {
	inner storage.RangeReader
	t     *tracer
}

func (r *tracedRange) ReadAt(p []byte, off int64) (int, error) {
	id := r.t.storageCall("storage.range_read")
	n, err := r.inner.ReadAt(p, off)
	r.t.end(id, n)
	return n, err
}

func (r *tracedRange) Size() int64 { return r.inner.Size() }

// covered returns how much of [lo, hi] the intervals cover. Children of a
// fan-out overlap, so their durations cannot simply be added.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	end := lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			sum += b - a
			end = b
		}
	}
	return sum
}

// spanStats is what the per-layer metrics need from the spans of one leg.
type spanStats struct {
	layerNs    map[string]int64 // by span name: total duration
	layerSelf  map[string]int64 // duration not covered by storage children
	layerCount map[string]int
	layerN     map[string]int
	storeCount map[string]int
	storeBytes map[string]int
	busyNs     int64 // time at least one storage call was running
}

// summarize folds the spans with from <= ID < to.
func (t *tracer) summarize(from, to int) spanStats {
	t.mu.Lock()
	spans := append([]span(nil), t.spans[from-1:to-1]...)
	t.mu.Unlock()
	st := spanStats{
		layerNs: map[string]int64{}, layerSelf: map[string]int64{}, layerCount: map[string]int{}, layerN: map[string]int{},
		storeCount: map[string]int{}, storeBytes: map[string]int{},
	}
	children := make(map[int][][2]int64)
	var all [][2]int64
	var lo, hi int64
	for i, s := range spans {
		if i == 0 || s.Start < lo {
			lo = s.Start
		}
		hi = max(hi, s.End)
		if strings.HasPrefix(s.Name, "storage.") {
			st.storeCount[s.Name]++
			st.storeBytes[s.Name] += s.N
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
			all = append(all, [2]int64{s.Start, s.End})
		}
	}
	for _, s := range spans {
		if s.Name == "request" || strings.HasPrefix(s.Name, "storage.") {
			continue
		}
		st.layerNs[s.Name] += s.dur()
		st.layerSelf[s.Name] += s.dur() - covered(children[s.ID], s.Start, s.End)
		st.layerCount[s.Name]++
		st.layerN[s.Name] += s.N
	}
	st.busyNs = covered(all, lo, hi)
	return st
}
