package api

import (
	"math"
	"strconv"
)

// The append encoders write the rows that repeat per point or per bucket
// in read responses. Their output is byte-identical to encoding/json's for
// PointJSON and BucketJSON (the fuzz tests hold them to that), without the
// reflection and the per-row allocation. A non-finite float, which
// encoding/json refuses, is written as null so that a response is valid
// JSON whatever the store holds.

// MaxRowLen bounds the bytes one AppendPoint or AppendBucket call adds:
// callers flushing a fixed buffer leave this much room per row.
const MaxRowLen = 320

// AppendPoint appends the JSON encoding of PointJSON{tg, ta, v} to dst.
func AppendPoint(dst []byte, tg, ta int64, v float64) []byte {
	dst = append(dst, `{"tg":`...)
	dst = strconv.AppendInt(dst, tg, 10)
	dst = append(dst, `,"ta":`...)
	dst = strconv.AppendInt(dst, ta, 10)
	dst = append(dst, `,"v":`...)
	dst = appendFloat(dst, v)
	return append(dst, '}')
}

// AppendBucket appends the JSON encoding of b to dst.
func AppendBucket(dst []byte, b BucketJSON) []byte {
	dst = append(dst, `{"start":`...)
	dst = strconv.AppendInt(dst, b.Start, 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, b.Count, 10)
	dst = append(dst, `,"min":`...)
	dst = appendFloat(dst, b.Min)
	dst = append(dst, `,"max":`...)
	dst = appendFloat(dst, b.Max)
	dst = append(dst, `,"mean":`...)
	dst = appendFloat(dst, b.Mean)
	dst = append(dst, `,"sum":`...)
	dst = appendFloat(dst, b.Sum)
	dst = append(dst, `,"first":`...)
	dst = appendFloat(dst, b.First)
	dst = append(dst, `,"last":`...)
	dst = appendFloat(dst, b.Last)
	return append(dst, '}')
}

// appendFloat follows encoding/json's float64 rule: shortest 'f' form,
// except 'e' below 1e-6 and from 1e21 up, with a two-digit negative
// exponent's leading zero dropped (e-09 becomes e-9).
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	abs := math.Abs(f)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
