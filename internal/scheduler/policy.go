package scheduler

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"notebookos/internal/cluster"
	"notebookos/internal/resources"
)

// ErrInsufficientHosts is returned when placement cannot find enough
// viable candidate servers; the Global Scheduler reacts by scaling out
// (paper §3.4.2).
var ErrInsufficientHosts = errors.New("scheduler: insufficient candidate hosts")

// DefaultSRHighWatermark caps any single host's subscription ratio
// regardless of the dynamic cluster-wide limit (§3.2.1's "configurable
// high watermark that prevents excessive over-subscription").
const DefaultSRHighWatermark = 3.0

// LeastLoaded is NotebookOS's placement policy (§3.4.1): it prefers hosts
// with the most idle GPUs, subject to (1) physical capacity, (2) the
// per-host SR high watermark, and (3) the dynamic cluster-wide SR limit —
// hosts whose post-placement SR would exceed the cluster-wide limit are
// rejected in favor of others when possible.
type LeastLoaded struct {
	// SRHighWatermark overrides DefaultSRHighWatermark when > 0.
	SRHighWatermark float64
}

// shapeTerms is what one selection resolves once per host shape, so the
// scan over the hosts compares integers only.
type shapeTerms struct {
	// gpus is the shape's GPU count: idle GPUs are gpus minus committed.
	gpus int32
	// srDenom is G*R, the denominator of the post-placement SR
	// S/(G*R); 0 for a shape whose SR is identically 0 (no GPUs). subMask
	// keeps a subscribed-GPU count as it is, or zeroes it for such a shape,
	// so that its hosts tie on SR.
	srDenom int
	subMask int32
	// maxSub and balSub are the largest post-placement subscribed-GPU
	// counts whose SR stays within the high watermark and within the
	// dynamic cluster-wide limit. A shape the request does not fit has
	// maxSub math.MinInt32, and its chunks are skipped.
	maxSub, balSub int32
}

// maxWithin returns the largest subscribed-GPU count s for which
// float64(s)/float64(denom) <= bound — the very expression the SR rules
// are written in, evaluated at the boundary, so comparing a count with the
// result decides exactly as evaluating the expression on it would
// (correctly rounded division is monotone in its numerator).
func maxWithin(bound float64, denom int) int32 {
	d := float64(denom)
	if x := bound * d; x < math.MaxInt32 {
		s := int32(x)
		for s < math.MaxInt32 && float64(s+1)/d <= bound {
			s++
		}
		for float64(s)/d > bound {
			s--
		}
		return s
	}
	return math.MaxInt32 // every count is within the bound
}

// candidate is one viable host with its selection keys, all integers: idle
// GPUs, post-placement subscribed GPUs (0 on a shape whose SR is
// identically 0) with the shape that turns them into an SR, and the host's
// ordinal, which sorts as its ID does.
type candidate struct {
	idle, sub, shape, ord, slot int32
}

// before reports whether a ranks strictly before b in least-loaded order:
// most idle GPUs first, then lowest post-placement SR, then host ID. On one
// shape the SRs order as their numerators do (they are distinct floats:
// the counts are int32); across shapes they are computed and compared as
// floats, which a uniform cluster never reaches.
func (a candidate) before(b *candidate, terms []shapeTerms) bool {
	if a.idle != b.idle {
		return a.idle > b.idle
	}
	if a.shape == b.shape {
		if a.sub != b.sub {
			return a.sub < b.sub
		}
	} else if x, y := a.postSR(terms), b.postSR(terms); x != y {
		return x < y
	}
	return a.ord < b.ord
}

func (a candidate) postSR(terms []shapeTerms) float64 {
	if d := terms[a.shape].srDenom; d != 0 {
		return float64(a.sub) / float64(d)
	}
	return 0
}

// topN keeps the n best candidates in selection order via insertion into a
// small sorted array: O(hosts·n) comparisons at worst, and — since most
// hosts rank after the n-th best already kept — one comparison for most.
// buf is the caller's scratch, n long; offer never stores a slice header,
// so a stack-allocated scratch stays there.
type topN struct {
	buf  []candidate
	kept int
}

func (t *topN) offer(c candidate, terms []shapeTerms) {
	i := t.kept
	if i < len(t.buf) {
		t.kept++
	} else if i--; !c.before(&t.buf[i], terms) {
		return
	}
	for i > 0 && c.before(&t.buf[i-1], terms) {
		t.buf[i] = t.buf[i-1]
		i--
	}
	t.buf[i] = c
}

// stackSelect is the largest n whose candidate scratch LeastLoaded keeps on
// the stack: R is 3 everywhere but the replica-count ablation. stackShapes
// is the same for the per-shape terms: clusters are built from a handful of
// instance types.
const (
	stackSelect = 4
	stackShapes = 8
)

// SelectHosts picks n distinct hosts able to host a replica with the given
// resource request, or fails with ErrInsufficientHosts.
func (p LeastLoaded) SelectHosts(c *cluster.Cluster, req resources.Spec, n int) ([]*cluster.Host, error) {
	out := make([]*cluster.Host, n)
	if err := p.SelectInto(c, req, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SelectInto is SelectHosts into the caller's buffer: it picks len(out)
// distinct hosts, allocating nothing up to stackSelect hosts on
// stackShapes host shapes. It makes one pass over the cluster's dense host
// table (cluster.Table) — chunk by chunk, scanning those whose summary does
// not already rule every host out (turnsAway) — maintaining two partial
// selections: hosts whose post-placement SR stays within the dynamic
// cluster-wide limit ("balanced"), and all viable hosts as a fallback when
// the balance rule leaves fewer than n candidates. What depends only on the
// request and a host's shape — whether it fits, and where the watermark and
// the limit fall — is settled once per shape before the pass.
func (p LeastLoaded) SelectInto(c *cluster.Cluster, req resources.Spec, out []*cluster.Host) error {
	n := len(out)
	if n == 0 {
		return nil
	}
	watermark := p.SRHighWatermark
	if watermark <= 0 {
		watermark = DefaultSRHighWatermark
	}
	r := c.ReplicasPerKernel()
	limit := c.SRLimit()

	tab := c.Table()
	var termStack [stackShapes]shapeTerms
	terms := termStack[:0]
	for _, shape := range tab.Shapes() {
		t := shapeTerms{gpus: int32(shape.GPUs), srDenom: shape.GPUs * r, maxSub: math.MinInt32}
		if req.Fits(shape) {
			t.maxSub, t.balSub = math.MaxInt32, math.MaxInt32
			if t.srDenom > 0 {
				t.subMask = -1
				t.maxSub = maxWithin(watermark, t.srDenom)
				// The dynamic limit only constrains once the cluster has
				// subscriptions; at bootstrap (limit 0) every host balances.
				if limit != 0 {
					t.balSub = maxWithin(limit, t.srDenom)
				}
			}
		}
		terms = append(terms, t)
	}

	// One backing array serves both candidate selections.
	var candStack [2 * stackSelect]candidate
	scratch := candStack[:]
	if n > stackSelect {
		scratch = make([]candidate, 2*n)
	}
	pass := pass{
		terms:    terms,
		reqGPUs:  int32(req.GPUs),
		balanced: topN{buf: scratch[:n]},
		viable:   topN{buf: scratch[n : 2*n]},
	}
	for j := 0; j < tab.Chunks(); j++ {
		shape, live := int32(tab.Shape(j)), tab.Live(j)
		if live != 0 && !pass.turnsAway(tab, j, shape) {
			pass.scan(tab.Rows(j), live, shape, int32(j*cluster.TableChunk))
		}
	}
	// Prefer balanced hosts; fall back to all viable ones if the balance
	// rule leaves too few candidates.
	sel := pass.balanced.buf[:pass.balanced.kept]
	if pass.balanced.kept < n {
		sel = pass.viable.buf[:pass.viable.kept]
	}
	if len(sel) < n {
		return fmt.Errorf("%w: need %d, found %d viable (req %v)",
			ErrInsufficientHosts, n, len(sel), req)
	}
	for i := range out {
		out[i] = tab.Host(int(sel[i].slot))
	}
	return nil
}

// pass is the state of one pass over the host table.
type pass struct {
	terms            []shapeTerms
	reqGPUs          int32
	balanced, viable topN
	// bar is the n-th best of the selection that decides as things stand,
	// barred whether there is one yet: the balanced selection once n hosts
	// balance (full) — from then on the fallback is moot: it is read only
	// if fewer than n hosts balance in the end, and then that held at every
	// host of the pass — and until then the fallback, once it holds n.
	bar          candidate
	barred, full bool
}

// beats reports whether b, the n-th best a selection already keeps, ranks
// before a host with these keys — decided on integers alone, and exactly
// unless the two are of different shapes, where it leaves the verdict to
// candidate.before. Nearly every host of a pass ends here.
func (b *candidate) beats(idle, sub, shape, ord int32) bool {
	if idle != b.idle {
		return idle < b.idle
	}
	if shape != b.shape {
		return false
	}
	if sub != b.sub {
		return sub > b.sub
	}
	return ord > b.ord
}

// turnsAway reports whether scan would turn every host of chunk j away as
// the pass stands, decided on the chunk's summary (cluster.Table.Summary)
// alone. Either none can pass the SR rules: the request does not fit the
// shape, or the fewest subscribed GPUs among them plus the request exceed
// the watermark — or the limit, once only balanced hosts count. Or the bar
// beats them all: a chunk is one shape, and hosts of one shape rank by
// committed GPUs, then subscribed GPUs, then ordinal whatever the request,
// so a bar that beats the summary's key beats every host — unless a
// balanced selection still short of n hosts could want one that is within
// the limit regardless. A shape without GPUs ranks its hosts on committed
// GPUs and ordinal alone, not in the summary's order, and is always
// scanned. The test is exact: a pass selects the same hosts with it as
// without.
func (p *pass) turnsAway(tab *cluster.Table, j int, shape int32) bool {
	t := &p.terms[shape]
	if t.maxSub == math.MinInt32 {
		return true
	}
	if t.subMask == 0 {
		return false
	}
	committed, subscribed, ord, minSub := tab.Summary(j)
	if sub := int32(minSub) + p.reqGPUs; sub > t.maxSub {
		return true
	} else if sub <= t.balSub {
		if !p.full {
			return false
		}
	} else if p.full {
		return true
	}
	return p.barred && p.bar.beats(t.gpus-int32(committed), int32(subscribed)+p.reqGPUs, shape, int32(ord))
}

// scan offers the viable hosts of one chunk — hosts of one shape, in the
// live slots of rows, the first of which is slot base — to the selections.
// The loop is kept to what turns a host away, so that its few variables
// stay in registers; a host that may be selected goes to consider.
func (p *pass) scan(rows *[cluster.TableChunk]cluster.Row, live uint32, shape, base int32) {
	t := &p.terms[shape]
	for ; live != 0; live &= live - 1 {
		i := bits.TrailingZeros32(live) % cluster.TableChunk // live != 0, so the remainder only spares a bounds check
		row := &rows[i]
		sub := int32(row.SubscribedGPUs()) + p.reqGPUs
		if sub > t.maxSub {
			continue
		}
		inBalance := sub <= t.balSub
		if p.full && !inBalance {
			continue
		}
		sub &= t.subMask
		idle := t.gpus - int32(row.CommittedGPUs())
		beaten := p.barred && p.bar.beats(idle, sub, shape, int32(row.Ord()))
		if beaten && (p.full || !inBalance) {
			continue
		}
		p.consider(candidate{idle: idle, sub: sub, shape: shape, ord: int32(row.Ord()), slot: base + int32(i)}, inBalance, beaten)
	}
}

// consider offers a host scan could not turn away to the selections, and
// moves the bar.
func (p *pass) consider(c candidate, inBalance, beaten bool) {
	if inBalance {
		p.balanced.offer(c, p.terms)
		if t := &p.balanced; t.kept == len(t.buf) {
			p.bar, p.barred, p.full = t.buf[t.kept-1], true, true
			return
		}
	}
	if !beaten {
		p.viable.offer(c, p.terms)
		if t := &p.viable; t.kept == len(t.buf) {
			p.bar, p.barred = t.buf[t.kept-1], true
		}
	}
}
