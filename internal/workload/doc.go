// Package workload is the evaluation workload catalog: the models and
// datasets of the paper's Table 1 and the per-session assignment drawn from
// them (Assign). It imports nothing from this module; the notebook runtime
// builtins that train such an assignment on a live kernel are in
// internal/control.
package workload
