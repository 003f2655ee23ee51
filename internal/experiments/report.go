package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"notebookos/internal/metrics"
)

// Report is one experiment's output: its banner and its lines, each a
// format string with the arguments it prints. An argument may be a cell, a
// value under a key, so a reader asks the report for a number (value)
// instead of parsing the text String prints.
type Report struct {
	id    string
	lines []line
}

type line struct {
	format string
	args   []any
}

// cell is a measured value under its key. It prints as its value does
// under the caller's verb.
type cell struct {
	key string
	v   any
}

// paper is the paper's value for the measured cell of the same key; a key
// prefixed with another figure's ID ("fig11:eventIAT/min") names that
// figure's cell. Two in a row under one key are a range. paper-check scores
// each.
type paper cell

func (c cell) Format(f fmt.State, verb rune)  { fmt.Fprintf(f, fmt.FormatString(f, verb), c.v) }
func (c paper) Format(f fmt.State, verb rune) { cell(c).Format(f, verb) }

// The value types a cell holds besides float64, bool and string; num
// reads any float kind.
type (
	seconds float64 // a duration in seconds, printed as fmtSeconds prints it
	millis  float64 // the paper's milliseconds; a number in seconds to num
	atLeast float64 // the paper's lower bound, a shape row of paper-check
)

func (s seconds) String() string { return fmtSeconds(float64(s)) }

// num reads a cell's value as a number, in seconds where it is a duration.
func num(v any) float64 {
	if ms, ok := v.(millis); ok {
		return float64(ms) / 1000
	}
	return reflect.ValueOf(v).Float()
}

// newReport starts a report with the standard banner.
func newReport(id, title string, o Options) *Report {
	scale := "full"
	if o.Quick {
		scale = "quick"
	}
	r := &Report{id: id}
	r.printf("== %s: %s (seed=%d scale=%s) ==\n", id, title, o.seed(), scale)
	return r
}

func (r *Report) printf(format string, args ...any) {
	r.lines = append(r.lines, line{format, args})
}

// String prints the report.
func (r *Report) String() string {
	var b strings.Builder
	for _, l := range r.lines {
		fmt.Fprintf(&b, l.format, l.args...)
	}
	return b.String()
}

// value is the first measured cell under key, nil if there is none.
func (r *Report) value(key string) any {
	for _, l := range r.lines {
		for _, a := range l.args {
			if c, ok := a.(cell); ok && c.key == key {
				return c.v
			}
		}
	}
	return nil
}

// cdfTable prints samples side by side at the given percentiles, each entry
// a cell named for its column and percentile ("Adobe/p50").
func (r *Report) cdfTable(names []string, samples []*metrics.Sample, percentiles []float64, unit string) {
	r.printf("%-8s"+strings.Repeat("%16s", len(names))+"\n", labels("pct", names)...)
	for _, p := range percentiles {
		args := []any{p}
		for i, s := range samples {
			args = append(args, cell{fmt.Sprintf("%s/p%g", names[i], p), s.Percentile(p)}, unit)
		}
		r.printf("p%-7g"+strings.Repeat("%14.2f%s", len(samples))+"\n", args...)
	}
}

// series prints timelines sampled at n instants from..to, each entry a cell
// named for its column and hour ("nbos/3.50h").
func (r *Report) series(from, to time.Time, n int, names []string, tls []*metrics.Timeline) {
	r.printf("%-10s"+strings.Repeat("%14s", len(names))+"\n", labels("hour", names)...)
	step := to.Sub(from) / time.Duration(n-1)
	for i := range n {
		t := from.Add(step * time.Duration(i))
		h := t.Sub(from).Hours()
		args := []any{h}
		for j, tl := range tls {
			args = append(args, cell{fmt.Sprintf("%s/%.2fh", names[j], h), tl.At(t)})
		}
		r.printf("%-10.2f"+strings.Repeat("%14.2f", len(tls))+"\n", args...)
	}
}

// labels is a table's header row: the first column's label, then names.
func labels(first string, names []string) []any {
	args := []any{first}
	for _, n := range names {
		args = append(args, n)
	}
	return args
}
