package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. It returns NaN for an empty slice. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile
// among n samples. The product is rounded to 1e-9 first so that, say,
// p99.9 of 10000 samples is rank 9990 and not 9991.
func rank(n int, p float64) int {
	r := int(math.Ceil(math.Round(p*float64(n)*1e7) / 1e9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder is the set of percentiles a tail metric may report.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentile picks the highest ladder percentile that leaves at
// least minBeyond samples above it out of n, so a tail figure always
// rests on a stated number of samples. It returns 0 when even the
// median leaves fewer.
func tailPercentile(n, minBeyond int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// minSamplesFor is the smallest sample count at which tailPercentile
// can choose p.
func minSamplesFor(p float64, minBeyond int) int {
	for n := 1; ; n++ {
		if beyond(n, p) >= minBeyond {
			return n
		}
	}
}

// validName reports whether s is a legal metric or workload name: 1 to
// 64 characters from letters, digits, '_', '.', '-', starting with a
// letter or a digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case i > 0 && (r == '_' || r == '.' || r == '-'):
		default:
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: 1 to 16 characters from
// letters, digits, '_', '/', '%', '.', '-'.
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '_' || r == '/' || r == '%' || r == '.' || r == '-':
		default:
			return false
		}
	}
	return true
}

// metricDef is one catalogued metric: its name and unit.
type metricDef struct {
	Name, Unit string
}

// validateCatalog checks every name and unit in defs and that no name
// repeats.
func validateCatalog(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !validName(d.Name) {
			return fmt.Errorf("invalid metric name %q", d.Name)
		}
		if !validUnit(d.Unit) {
			return fmt.Errorf("metric %s: invalid unit %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect builds the result's metric map from vals, demanding a valid
// catalog and exactly its names: a missing, extra, or non-finite value
// is an error, never a silently incomplete report.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	if err := validateCatalog(defs); err != nil {
		return nil, err
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not catalogued", name)
			}
		}
	}
	return out, nil
}
