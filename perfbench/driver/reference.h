// A fixed host workload that calls nothing in the repository: the yardstick
// the runner measures next to every pass, so that host speed drift can be
// told apart from a change in the program.
#pragma once

namespace perfbench {

/// Runs the reference workload once (about 10 ms) and returns its wall
/// seconds.
double reference_seconds();

/// Median wall seconds of `reps` runs of the reference workload. The median
/// ignores a run that the host preempted; a single 10 ms run cannot.
double reference_median(int reps);

}  // namespace perfbench
