// Package workload is the evaluation workload catalog: the models and
// datasets of the paper's Table 1, the per-session assignment drawn from
// them (Assign), and the training cell an assignment renders to
// (Assignment.TrainingCell). It imports nothing from this module; the
// notebook runtime builtins that execute such a cell on a live kernel are
// in internal/control.
package workload
