package obs

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Timeline rendering: the coordinator gathers span-fragment sets from
// the fleet, assigns each process a lane and a clock-skew correction,
// and this file turns the lot into one Chrome-trace-event JSON
// document ({"traceEvents":[...]}) that Perfetto and chrome://tracing
// load directly. Lanes become trace "processes" (named via metadata
// events), fragments become complete ("X") events — or instant ("i")
// events when zero-length — with timestamps rebased to the earliest
// adjusted span start so the timeline starts at zero.

// Lane is one process's contribution to a merged timeline.
type Lane struct {
	// Name labels the lane, e.g. "coord" or "w0001 http://127.0.0.1:9".
	Name string
	// Frags are the lane's span fragments, in any order.
	Frags []SpanFragment
	// Skew is subtracted from every fragment timestamp: the estimated
	// amount by which this lane's clock runs ahead of the
	// coordinator's.
	Skew time.Duration
}

// timelineEvent is one Chrome trace-event object.
type timelineEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTimeline merges the lanes into one Chrome-trace JSON document
// on w. Events within each lane are sorted by adjusted start time, so
// per-lane timestamps are monotone by construction. Within a lane each
// span gets a thread (tid) from packThreads, so concurrent spans —
// parallel cells on a -jobs pool, a worker's cell slots, a
// coordinator's leases — sit on separate tracks while a span nested in
// another shares its parent's track.
func WriteTimeline(w io.Writer, lanes []Lane) error {
	var events []timelineEvent
	t0 := int64(0)
	first := true
	for _, ln := range lanes {
		for _, fr := range ln.Frags {
			s := fr.Start - int64(ln.Skew)
			if first || s < t0 {
				t0, first = s, false
			}
		}
	}
	for pid, ln := range lanes {
		events = append(events, timelineEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": ln.Name},
		})
		frags := append([]SpanFragment(nil), ln.Frags...)
		sort.SliceStable(frags, func(i, j int) bool {
			if frags[i].Start != frags[j].Start {
				return frags[i].Start < frags[j].Start
			}
			return frags[i].End > frags[j].End // an enclosing span before what it encloses
		})
		tids := packThreads(frags)
		for i, fr := range frags {
			args := map[string]any{"trace": fr.Trace, "span": fr.Span}
			if fr.Parent != "" {
				args["parent"] = fr.Parent
			}
			if fr.Proc != "" {
				args["proc"] = fr.Proc
			}
			for k, v := range fr.Attrs {
				args[k] = v
			}
			ev := timelineEvent{
				Name: fr.Name,
				TS:   float64(fr.Start-int64(ln.Skew)-t0) / 1e3,
				PID:  pid,
				TID:  tids[i],
				Args: args,
			}
			if fr.End > fr.Start {
				ev.Ph = "X"
				ev.Dur = float64(fr.End-fr.Start) / 1e3
			} else {
				ev.Ph = "i"
				ev.S = "p"
			}
			events = append(events, ev)
		}
	}
	doc := struct {
		TraceEvents     []timelineEvent `json:"traceEvents"`
		DisplayTimeUnit string          `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// packThreads assigns each fragment, sorted by start, a thread: its
// parent's, when the parent's thread can take it, else the lowest tid
// whose open spans either ended before it starts or fully contain it.
// No two spans on one thread ever partly overlap, and a child (a cell's
// build) stays under its own parent rather than under whichever
// concurrent span happens to enclose it.
func packThreads(frags []SpanFragment) []int {
	tids := make([]int, len(frags))
	tidOf := make(map[string]int, len(frags)) // span ID -> tid
	// open holds, per tid, the end times of its still-open spans,
	// outermost first.
	var open [][]int64
	fits := func(tid int, fr SpanFragment) bool {
		stack := open[tid]
		for len(stack) > 0 && stack[len(stack)-1] <= fr.Start {
			stack = stack[:len(stack)-1]
		}
		open[tid] = stack
		return len(stack) == 0 || fr.End <= stack[len(stack)-1]
	}
	for i, fr := range frags {
		tid, ok := tidOf[fr.Parent]
		if !ok || !fits(tid, fr) {
			for tid = 0; tid < len(open) && !fits(tid, fr); tid++ {
			}
		}
		if tid == len(open) {
			open = append(open, nil)
		}
		open[tid] = append(open[tid], fr.End)
		tids[i] = tid
		if fr.Span != "" {
			tidOf[fr.Span] = tid
		}
	}
	return tids
}

// EstimateSkew estimates how far a remote lane's clock runs ahead of
// the reference lane, by pairing spans that describe the same work on
// both sides: for every key in pairs, the difference between the
// remote observation and the reference observation is one skew sample
// (plus the unknowable network delay); the median sample is the
// estimate. ref and remote map a pairing key — for cell spans, the
// lease ID — to the span's start nanos on that side. Zero pairs means
// zero skew (trust the clocks).
func EstimateSkew(ref, remote map[string]int64) time.Duration {
	var samples []int64
	for k, rt := range remote {
		if ct, ok := ref[k]; ok {
			samples = append(samples, rt-ct)
		}
	}
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return time.Duration(samples[len(samples)/2])
}
