package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a reported percentile.
// A percentile with fewer samples beyond it is decided by a handful of
// outliers and does not repeat from run to run.
const minBeyond = 10

// tailLadder is the set of percentiles a tail figure may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile on the ladder, at most
// limit, that leaves at least minBeyond of n samples above it. ok is
// false when even the median does not qualify.
func tailPercentile(n int, limit float64) (p float64, ok bool) {
	for _, q := range tailLadder {
		if q > limit {
			break
		}
		if beyond(n, q) >= minBeyond {
			p, ok = q, true
		}
	}
	return p, ok
}

// rank is the nearest-rank index of percentile q in n sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond counts the samples above percentile q's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// percentile returns the nearest-rank percentile q of xs (xs is not
// modified). It returns NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// median is the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// promSnapshot maps a Prometheus series ("name" or "name{labels}") to
// its value.
type promSnapshot map[string]float64

// parseProm reads the Prometheus text exposition format the deesim
// binaries serve on /metrics and write with -metrics-out. Comment lines
// are skipped; exemplars after " # " are ignored.
func parseProm(text string) (promSnapshot, error) {
	snap := make(promSnapshot)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		// The value is the last field; the series may contain spaces
		// only inside its label set, so split at the last space.
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", ln, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		snap[strings.TrimSpace(line[:sp])] = v
	}
	return snap, sc.Err()
}

// sum adds every series of the named metric, whatever its labels.
func (s promSnapshot) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || (strings.HasPrefix(k, name+"{") && strings.HasSuffix(k, "}")) {
			t += v
		}
	}
	return t
}

// readPromFile parses a -metrics-out snapshot.
func readPromFile(path string) (promSnapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseProm(string(b))
}

// checkCounts compares counts with the record key left by an earlier
// run of the same code, writing the record if this is the first run.
// Simulated behaviour is deterministic, so any difference means a
// change altered what was simulated, not how fast.
func checkCounts(dir, key string, counts map[string]int64) error {
	if len(counts) == 0 {
		return nil
	}
	path := filepath.Join(dir, key+".json")
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		data, err := json.MarshalIndent(counts, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		return err
	}
	var prev map[string]int64
	if err := json.Unmarshal(b, &prev); err != nil {
		return fmt.Errorf("counts record %s: %w", path, err)
	}
	return compareCounts(prev, counts)
}

// compareCounts reports every count that differs between two runs.
func compareCounts(prev, cur map[string]int64) error {
	keys := make(map[string]bool)
	for k := range prev {
		keys[k] = true
	}
	for k := range cur {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		p, pok := prev[k]
		c, cok := cur[k]
		switch {
		case !pok:
			diffs = append(diffs, fmt.Sprintf("%s: new count %d", k, c))
		case !cok:
			diffs = append(diffs, fmt.Sprintf("%s: missing (was %d)", k, p))
		case p != c:
			diffs = append(diffs, fmt.Sprintf("%s: %d, earlier run %d", k, c, p))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	return fmt.Errorf("deterministic counts changed: %s", strings.Join(diffs, "; "))
}
