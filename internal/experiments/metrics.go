package experiments

import "deesim/internal/obs"

// mCellsStarted counts matrix-cell simulation attempts that actually
// reached the simulator — journal replays and memo hits never
// increment it, which is exactly what makes it the thundering-herd
// assertion series: N identical concurrent submissions done right
// raise it by one sweep's worth of cells, not N.
var mCellsStarted = obs.GetOrCreateCounter("deesim_cells_started_total")

// mCellDuration is the per-cell latency histogram. Every freshly
// simulated cell observes here — single-node sweeps and leased
// distributed cells alike — and each observation under a sampled trace
// leaves that trace's id as the bucket exemplar, so a latency outlier
// in a dashboard links straight to a fetchable timeline.
var mCellDuration = obs.GetOrCreateHistogram("deesim_cell_duration_seconds", obs.DefaultLatencyBuckets)

// mInputBuilds counts prepared-input builds (trace record plus
// simulator preparation). Cells that reuse an input already held by
// their Inputs table do not increment it, so on a worker it reads how
// many times leased cells had to build rather than reuse.
var mInputBuilds = obs.GetOrCreateCounter("deesim_input_builds_total")
