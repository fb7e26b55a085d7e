package api

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// floatSeeds are the float64 values on the edges of encoding/json's
// formatting rule, next to the extremes of the type.
var floatSeeds = []float64{
	0, math.Copysign(0, -1), 1, -1, 21.5, 0.1, 1.0 / 3,
	1e-6, 1e-7, 9.999999999999999e-7, -1e-6, -1e-7, 1.5e-9, 1e-10, 1e-100,
	1e20, 1e21, 9.999999999999999e20, -1e20, -1e21, 1e22, 1e100,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308,
	math.MaxFloat64, -math.MaxFloat64, math.MaxInt64, math.MinInt64,
}

func finite(fs ...float64) bool {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// FuzzAppendPoint holds AppendPoint byte-identical to encoding/json on
// PointJSON for every finite value; a non-finite one, which encoding/json
// refuses, must still give valid JSON.
func FuzzAppendPoint(f *testing.F) {
	for i, v := range floatSeeds {
		f.Add(int64(i), int64(-i), math.Float64bits(v))
	}
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), math.Float64bits(math.NaN()))
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), math.Float64bits(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, tg, ta int64, bits uint64) {
		v := math.Float64frombits(bits)
		got := AppendPoint([]byte("x"), tg, ta, v)[1:]
		if len(got) > MaxRowLen {
			t.Fatalf("row of %d bytes exceeds MaxRowLen: %s", len(got), got)
		}
		if !finite(v) {
			var back PointJSON
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatalf("non-finite %v encoded as invalid JSON %s: %v", v, got, err)
			}
			return
		}
		want, err := json.Marshal(PointJSON{TG: tg, TA: ta, V: v})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("AppendPoint = %s, encoding/json = %s", got, want)
		}
	})
}

// FuzzAppendBucket is the same differential for BucketJSON.
func FuzzAppendBucket(f *testing.F) {
	n := len(floatSeeds)
	for i := range floatSeeds {
		b := func(k int) uint64 { return math.Float64bits(floatSeeds[(i+k)%n]) }
		f.Add(int64(i)-3, int64(i), b(0), b(1), b(2), b(3), b(4), b(5))
	}
	f.Add(int64(math.MinInt64), int64(math.MinInt64), math.Float64bits(-math.MaxFloat64), math.Float64bits(-math.MaxFloat64),
		math.Float64bits(-2.225073858507201e-308), math.Float64bits(math.Inf(-1)), math.Float64bits(math.NaN()), math.Float64bits(-1.2345678901234567e-5))
	f.Fuzz(func(t *testing.T, start, count int64, min, max, mean, sum, first, last uint64) {
		b := BucketJSON{
			Start: start, Count: count,
			Min: math.Float64frombits(min), Max: math.Float64frombits(max),
			Mean: math.Float64frombits(mean), Sum: math.Float64frombits(sum),
			First: math.Float64frombits(first), Last: math.Float64frombits(last),
		}
		got := AppendBucket([]byte("x"), b)[1:]
		if len(got) > MaxRowLen {
			t.Fatalf("row of %d bytes exceeds MaxRowLen: %s", len(got), got)
		}
		if !finite(b.Min, b.Max, b.Mean, b.Sum, b.First, b.Last) {
			var back BucketJSON
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatalf("non-finite %+v encoded as invalid JSON %s: %v", b, got, err)
			}
			return
		}
		want, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("AppendBucket = %s, encoding/json = %s", got, want)
		}
	})
}

// TestAppendNonFiniteIsNull pins what a stored NaN or Inf looks like on
// the wire.
func TestAppendNonFiniteIsNull(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, want := string(AppendPoint(nil, 1, 2, v)), `{"tg":1,"ta":2,"v":null}`; got != want {
			t.Errorf("AppendPoint(%v) = %s, want %s", v, got, want)
		}
	}
	got := string(AppendBucket(nil, BucketJSON{Start: 1, Count: 2, Min: 3, Max: 4, Mean: math.NaN(), Sum: math.Inf(1), First: 5, Last: 6}))
	if want := `{"start":1,"count":2,"min":3,"max":4,"mean":null,"sum":null,"first":5,"last":6}`; got != want {
		t.Errorf("AppendBucket = %s, want %s", got, want)
	}
}

// TestAppendPointRandomBits runs the differential over a fixed sample of
// float64 bit patterns, so the gating test run covers more than the seeds.
func TestAppendPointRandomBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var got []byte
	for i := 0; i < 200_000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if !finite(v) {
			continue
		}
		tg, ta := int64(rng.Uint64()), int64(rng.Uint64())
		got = AppendPoint(got[:0], tg, ta, v)
		want, err := json.Marshal(PointJSON{TG: tg, TA: ta, V: v})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("AppendPoint = %s, encoding/json = %s", got, want)
		}
	}
}
