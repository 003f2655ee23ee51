package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// matchBand is the largest relative gap between ours and the paper's value
// that paperCheck calls a match.
const matchBand = 0.10

// chains are the paper's orderings among one figure's cells, which the
// figures state in words or not at all: each key's value is below ("<") or
// at most ("<=") the next one's, a key times its factor where it has one
// ("*1.05").
var chains = []struct{ fig, chain string }{
	{"fig8", "GPU-h/oracle <= GPU-h/batch <= GPU-h/lcp <= GPU-h/nbos < GPU-h/reservation"},
	{"fig9b", "reservation/p50 <= nbos/p50*1.05"},
	{"fig9b", "nbos/p50 < nbos-lcp/p50"},
	{"fig9b", "nbos-lcp/p50 < batch/p50"},
	{"fig12b", "margin/reservation < margin/nbos"},
	{"fig13", "saved/2h0m0s <= saved/1h30m0s <= saved/1h0m0s <= saved/30m0s <= saved/15m0s"},
	{"fig14b", "ratio/reservation < ratio/nbos"},
}

// paperCheck is the paper scoreboard. It runs the figure experiments and
// scores each paper cell they print against the measured cell it names:
// the row gives the paper's value, ours, the signed gap relative to the
// paper's value and "match" when the gap is within matchBand, "gap" when it
// is not. A range is scored against its nearer end. A lower bound, a
// printed check and each chain is a shape row that "holds" or "fails".
func paperCheck(o Options) (*Report, error) {
	figs := map[string]*Report{}
	var ids []string
	for _, e := range All() {
		if strings.HasPrefix(e.ID, "fig") {
			fr, err := e.Run(o)
			if err != nil {
				return nil, err
			}
			figs[e.ID], ids = fr, append(ids, e.ID)
		}
	}
	r := newReport("paper-check", "Paper scoreboard", o)
	r.printf("%-7s %-22s %10s %10s %9s  %s\n", "figure", "key", "paper", "ours", "gap", "status")
	count := map[string]int{}
	row := func(status, format string, args ...any) {
		count[status]++
		r.printf(format+"  %s\n", append(args, status)...)
	}
	shape := func(fig, claim string, holds bool) {
		row(map[bool]string{true: "holds", false: "fails"}[holds], "%-7s %-54s", fig, claim)
	}
	for _, id := range ids {
		var ps []paper
		for _, l := range figs[id].lines {
			for _, a := range l.args {
				switch a := a.(type) {
				case paper:
					ps = append(ps, a)
				case cell:
					if holds, ok := a.v.(bool); ok {
						shape(id, a.key, holds)
					}
				}
			}
		}
		for i := 0; i < len(ps); i++ {
			p, src, key := ps[i], figs[id], ps[i].key
			if fig, k, ok := strings.Cut(p.key, ":"); ok {
				src, key = figs[fig], k
			}
			ours, lo, hi := num(src.value(key)), num(p.v), num(p.v)
			if _, ok := p.v.(atLeast); ok {
				shape(id, fmt.Sprintf("%s %.4g > %g", p.key, ours, lo), ours > lo)
				continue
			}
			text := strconv.FormatFloat(lo, 'g', 6, 64)
			if i+1 < len(ps) && ps[i+1].key == p.key {
				i++
				hi = num(ps[i].v)
				text += "-" + strconv.FormatFloat(hi, 'g', 6, 64)
			}
			ref := math.Min(math.Max(ours, lo), hi) // the nearer end of a range
			gap := (ours - ref) / ref
			row(map[bool]string{true: "match", false: "gap"}[math.Abs(gap) <= matchBand],
				"%-7s %-22s %10s %10.4g %+8.1f%%", id, p.key, text, cell{id + " " + p.key, ours}, gap*100)
		}
		for _, c := range chains {
			if c.fig == id {
				shape(id, c.chain, ordered(figs[id], c.chain))
			}
		}
	}
	r.printf("%d match, %d gap, %d holds, %d fails\n", count["match"], count["gap"], count["holds"], count["fails"])
	return r, nil
}

// ordered reports whether a chain holds over a report's cells.
func ordered(r *Report, chain string) bool {
	terms := strings.Fields(chain)
	v := func(term string) float64 {
		key, factor, ok := strings.Cut(term, "*")
		if !ok {
			return num(r.value(key))
		}
		f, err := strconv.ParseFloat(factor, 64)
		if err != nil {
			panic(err)
		}
		return num(r.value(key)) * f
	}
	for i := 1; i+1 < len(terms); i += 2 {
		if a, b := v(terms[i-1]), v(terms[i+1]); a > b || a == b && terms[i] == "<" {
			return false
		}
	}
	return true
}
