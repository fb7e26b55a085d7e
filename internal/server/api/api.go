// Package api defines the wire types and the text line protocol shared by
// the ingestion/query server (internal/server) and its Go client
// (internal/server/client). Keeping them in a leaf package lets the server
// tests drive the real client without an import cycle.
//
// The line protocol is newline-delimited, one point per line:
//
//	series t_g t_a value
//
// Fields are whitespace-separated. t_a may be "-" to let the server assign
// the arrival timestamp at receipt time (the paper's t_a is "assigned by
// the database"). Blank lines and lines starting with '#' are ignored.
package api

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Point is one write in a batch, addressed to a series.
type Point struct {
	Series string  `json:"series"`
	TG     int64   `json:"tg"`
	TA     int64   `json:"ta"`
	V      float64 `json:"v"`
	// AssignTA requests a server-assigned arrival timestamp ("-" in the
	// line protocol; "assign_ta": true in JSON).
	AssignTA bool `json:"assign_ta,omitempty"`
}

// WriteRequest is the JSON write body. A bare JSON array of points is also
// accepted.
type WriteRequest struct {
	Points []Point `json:"points"`
}

// WriteResponse reports the outcome of a write: Accepted points were
// applied to the engine before the response was sent; Rejected points were
// refused because an ingest queue was full (HTTP 429).
type WriteResponse struct {
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	Error    string `json:"error,omitempty"`
}

// PointJSON is one stored point in query responses.
type PointJSON struct {
	TG int64   `json:"tg"`
	TA int64   `json:"ta"`
	V  float64 `json:"v"`
}

// ScanStatsJSON mirrors lsm.ScanStats for cost accounting.
type ScanStatsJSON struct {
	TablesTouched     int     `json:"tables_touched"`
	TablePoints       int     `json:"table_points"`
	MemPoints         int     `json:"mem_points"`
	ResultPoints      int     `json:"result_points"`
	ReadAmplification float64 `json:"read_amplification"`
	// BlocksRead / BlocksCached report what the block-addressed read path
	// actually fetched: blocks decoded from storage vs. served by the
	// shared block cache. Both are zero for memory-only databases.
	BlocksRead   int64 `json:"blocks_read"`
	BlocksCached int64 `json:"blocks_cached"`
	// TablesTouchedPerLevel breaks tables_touched down by on-disk level
	// (element 0 = L1; L0 and memtable sources excluded). Omitted for
	// engines without level accounting.
	TablesTouchedPerLevel []int `json:"tables_touched_per_level,omitempty"`
	// RollupBucketsUsed is the number of precomputed rollup buckets an
	// aggregate folded instead of raw points (0 for plain scans and for
	// databases without a rollup window). RawPointsScanned is the residual
	// raw work: points decoded and folded the ordinary way (equal to
	// result_points; spelled out so dashboards can plot the rollup split
	// without knowing that equivalence).
	RollupBucketsUsed int `json:"rollup_buckets_used"`
	RawPointsScanned  int `json:"raw_points_scanned"`
}

// ScanResponse is the /scan body. Error, when set, reports a storage or
// decode fault that truncated the streamed point list.
type ScanResponse struct {
	Series string        `json:"series"`
	Count  int           `json:"count"`
	Points []PointJSON   `json:"points"`
	Stats  ScanStatsJSON `json:"stats"`
	Error  string        `json:"error,omitempty"`
}

// BucketJSON is one downsampled window in /aggregate responses.
type BucketJSON struct {
	Start int64   `json:"start"`
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Sum   float64 `json:"sum"`
	First float64 `json:"first"`
	Last  float64 `json:"last"`
}

// AggregateResponse is the /aggregate body. Stats carries the read-cost
// accounting of the underlying snapshot scan (the buckets are folded
// streaming off an iterator, so this is the only place the cost surfaces).
type AggregateResponse struct {
	Series  string        `json:"series"`
	Width   int64         `json:"width"`
	Buckets []BucketJSON  `json:"buckets"`
	Stats   ScanStatsJSON `json:"stats"`
}

// SeriesResponse is the /series body. With a ?match= filter, Series holds
// only the matching IDs and Labels carries each one's label set.
type SeriesResponse struct {
	Series []string `json:"series"`
	// Labels maps series ID → label pairs; present only for matcher
	// listings (plain /series stays byte-compatible with old clients).
	Labels map[string]map[string]string `json:"labels,omitempty"`
}

// CreateSeriesRequest is the POST /series body. Exactly one of Name
// (name-addressed series) or Labels (tag-addressed; the server derives
// the canonical ID) must be set.
type CreateSeriesRequest struct {
	Name   string            `json:"name,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
}

// CreateSeriesResponse reports the created (or pre-existing) series.
type CreateSeriesResponse struct {
	// ID is the series' canonical identifier — the name for
	// name-addressed series, the label-set hash for tagged ones. Writes
	// and scans address the series by this ID.
	ID     string            `json:"id"`
	Labels map[string]string `json:"labels,omitempty"`
}

// QuerySeriesJSON is one matched series' slice of a /query response.
type QuerySeriesJSON struct {
	ID      string            `json:"id"`
	Labels  map[string]string `json:"labels,omitempty"`
	Points  []PointJSON       `json:"points,omitempty"`
	Buckets []BucketJSON      `json:"buckets,omitempty"`
	Count   int               `json:"count"`
	Stats   ScanStatsJSON     `json:"stats"`
	// Error records a per-series failure (e.g. the series was dropped
	// mid-query); the query as a whole still succeeds.
	Error string `json:"error,omitempty"`
}

// QueryStatsJSON summarizes one /query execution.
type QueryStatsJSON struct {
	SeriesMatched  int   `json:"series_matched"`
	SeriesQueried  int   `json:"series_queried"`
	SeriesFailed   int   `json:"series_failed"`
	TablesTouched  int   `json:"tables_touched"`
	BlocksRead     int64 `json:"blocks_read"`
	PointsReturned int   `json:"points_returned"`
	Workers        int   `json:"workers"`
}

// QueryResponse is the /query body: the canonical form of the parsed
// matchers, one result per matched series (sorted by ID), and the
// query-wide fan-out statistics.
type QueryResponse struct {
	Matchers string            `json:"matchers"`
	Results  []QuerySeriesJSON `json:"results"`
	Stats    QueryStatsJSON    `json:"stats"`
}

// DecisionJSON reports the adaptive analyzer's current choice for a series.
type DecisionJSON struct {
	Policy string  `json:"policy"`
	NSeq   int     `json:"n_seq"`
	Rc     float64 `json:"r_c"`
	Rs     float64 `json:"r_s"`
}

// SeriesStatsJSON is one series' entry in /stats.
type SeriesStatsJSON struct {
	Name               string  `json:"name"`
	Policy             string  `json:"policy"`
	SeqCap             int     `json:"seq_cap"`
	PointsIngested     int64   `json:"points_ingested"`
	PointsWritten      int64   `json:"points_written"`
	PointsRewritten    int64   `json:"points_rewritten"`
	Flushes            int64   `json:"flushes"`
	Compactions        int64   `json:"compactions"`
	InOrderPoints      int64   `json:"in_order_points"`
	OutOfOrderPoints   int64   `json:"out_of_order_points"`
	WriteAmplification float64 `json:"write_amplification"`
	// Resident reports whether the series has a live engine right now;
	// false means the memory arbiter evicted it (or never instantiated it)
	// and its counters are zero until the next access warms it.
	Resident bool          `json:"resident"`
	Decision *DecisionJSON `json:"decision,omitempty"`
	// Levels describes the engine's on-disk levels L1..Lk, L1 first.
	// Omitted for cold series.
	Levels []LevelStatsJSON `json:"levels,omitempty"`
}

// LevelStatsJSON is one on-disk level's entry in /stats and
// /series/{series}/stats: current structure plus cumulative per-level
// compaction counters.
type LevelStatsJSON struct {
	Level  int `json:"level"`
	Tables int `json:"tables"`
	Points int `json:"points"`
	// TargetPoints is the leveling size target; 0 means unbounded (the
	// last level).
	TargetPoints int `json:"target_points"`
	// Compactions counts merges that wrote into this level; PointsIn the
	// points those merges wrote; PointsRewritten the level's own points
	// they read back and rewrote.
	Compactions     int64 `json:"compactions"`
	PointsIn        int64 `json:"points_in"`
	PointsRewritten int64 `json:"points_rewritten"`
}

// WALStatsJSON is the shared group-commit WAL's /stats block. Present only
// when the DB runs the shared log (durable, WAL on, non-legacy wiring).
type WALStatsJSON struct {
	Shards          int     `json:"shards"`
	Commits         int64   `json:"commits"`
	Records         int64   `json:"records"`
	Points          int64   `json:"points"`
	Checkpoints     int64   `json:"checkpoints"`
	Segments        int     `json:"segments"`
	SegmentsRemoved int64   `json:"segments_removed"`
	PendingSeries   int     `json:"pending_series"`
	PendingPoints   int64   `json:"pending_points"`
	BatchMeanPoints float64 `json:"batch_mean_points"`
	CommitP99Secs   float64 `json:"commit_p99_seconds"`
}

// ArbiterStatsJSON is the memory arbiter's /stats block. Present only when
// the DB was opened with a memory budget.
type ArbiterStatsJSON struct {
	BudgetBytes         int64   `json:"budget_bytes"`
	MemtableBytes       int64   `json:"memtable_bytes"`
	MemtableTargetBytes int64   `json:"memtable_target_bytes"`
	CacheTargetBytes    int64   `json:"cache_target_bytes"`
	WritePressure       float64 `json:"write_pressure"`
	ReadPressure        float64 `json:"read_pressure"`
	ResidentSeries      int     `json:"resident_series"`
	ColdSeries          int     `json:"cold_series"`
	Evictions           int64   `json:"evictions"`
	Rebalances          int64   `json:"rebalances"`
}

// StatsResponse is the /stats body.
type StatsResponse struct {
	TotalWA float64           `json:"total_wa"`
	Series  []SeriesStatsJSON `json:"series"`
	WAL     *WALStatsJSON     `json:"wal,omitempty"`
	Arbiter *ArbiterStatsJSON `json:"arbiter,omitempty"`
}

// ReadStatsJSON is the server-side read-path accounting for one series:
// cumulative ScanStats sums over every scan/aggregate served since start,
// the most recent scan's ScanStats, and latency quantiles from the
// per-series scan-latency histogram. The latency fields are pointers so a
// quantile that is undefined (NaN: no observations yet) is omitted from
// the wire instead of being misreported as 0 — encoding/json cannot
// represent NaN.
type ReadStatsJSON struct {
	Scans              int64          `json:"scans"`
	TablesTouched      int64          `json:"tables_touched"`
	TablePoints        int64          `json:"table_points"`
	MemPoints          int64          `json:"mem_points"`
	ResultPoints       int64          `json:"result_points"`
	ReadAmplification  float64        `json:"read_amplification"`
	LatencyP50Seconds  *float64       `json:"latency_p50_seconds,omitempty"`
	LatencyP99Seconds  *float64       `json:"latency_p99_seconds,omitempty"`
	LatencyMeanSeconds *float64       `json:"latency_mean_seconds,omitempty"`
	LastScan           *ScanStatsJSON `json:"last_scan,omitempty"`
}

// CompactionStatsJSON is the shared compaction scheduler's view of one
// series: its pending L0 backlog, whether a pool worker is merging it right
// now, and cumulative merge/wait accounting. Present only when the DB runs
// a shared scheduler.
type CompactionStatsJSON struct {
	Queued       int     `json:"queued"`
	Running      bool    `json:"running"`
	Merges       int64   `json:"merges"`
	Failed       int64   `json:"failed"`
	WaitSeconds  float64 `json:"wait_seconds"`
	MergeSeconds float64 `json:"merge_seconds"`
}

// SeriesDetailResponse is the /series/{series}/stats body: the same engine
// counters as one /stats entry plus the server's read-path accounting and,
// with a shared compaction scheduler, the scheduler's per-series view.
type SeriesDetailResponse struct {
	SeriesStatsJSON
	Read       ReadStatsJSON        `json:"read"`
	Compaction *CompactionStatsJSON `json:"compaction,omitempty"`
}

// ErrorResponse is the body of non-2xx responses (except 429, which uses
// WriteResponse so the caller learns the partial-acceptance split).
type ErrorResponse struct {
	Error string `json:"error"`
}

// RecoveryJSON is the /healthz recovery block: what the store rebuilt from
// its backend at startup.
type RecoveryJSON struct {
	CatalogFound        bool     `json:"catalog_found"`
	CatalogVersion      uint64   `json:"catalog_version"`
	SeriesRecovered     int      `json:"series_recovered"`
	WALOnlySeries       int      `json:"wal_only_series"`
	MigratedSeries      []string `json:"migrated_series,omitempty"`
	OrphanSeriesRemoved []string `json:"orphan_series_removed,omitempty"`
	WALPointsReplayed   int64    `json:"wal_points_replayed"`
	TornWALs            int      `json:"torn_wals"`
	OrphanTablesRemoved int      `json:"orphan_tables_removed"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status   string       `json:"status"`
	Recovery RecoveryJSON `json:"recovery"`
}

// FormatLine renders one point in the line protocol.
func FormatLine(p Point) string {
	ta := strconv.FormatInt(p.TA, 10)
	if p.AssignTA {
		ta = "-"
	}
	return fmt.Sprintf("%s %d %s %s", p.Series, p.TG, ta, strconv.FormatFloat(p.V, 'g', -1, 64))
}

// ParseLine parses one line-protocol line. Callers must skip blank and
// comment lines themselves (the server does so with line numbers intact).
func ParseLine(line string) (Point, error) {
	f := strings.Fields(line)
	if len(f) != 4 {
		return Point{}, fmt.Errorf("want 4 fields \"series t_g t_a value\", got %d", len(f))
	}
	var p Point
	p.Series = f[0]
	tg, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Point{}, fmt.Errorf("bad t_g %q", f[1])
	}
	p.TG = tg
	if f[2] == "-" {
		p.AssignTA = true
	} else {
		ta, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return Point{}, fmt.Errorf("bad t_a %q", f[2])
		}
		p.TA = ta
	}
	v, err := strconv.ParseFloat(f[3], 64)
	if err != nil {
		return Point{}, fmt.Errorf("bad value %q", f[3])
	}
	// ParseFloat accepts NaN and ±Inf, which no JSON response can carry.
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return Point{}, fmt.Errorf("non-finite value %q", f[3])
	}
	p.V = v
	return p, nil
}
