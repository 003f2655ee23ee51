package detmath

import (
	"math"
	"math/rand"
	"testing"
)

// expBits pins Exp's bits on every platform: arguments whose e**x the
// standard library rounds differently on and off amd64's FMA path (the
// value here is the FMA path's); arguments whose bits move if the Taylor
// series' last two fused steps round twice; then exp_amd64.s's special cases
// and branches: overflow, the denormal scale and underflow.
var expBits = []struct {
	x    float64
	bits uint64
}{
	{-0.2636780947466306, 0x3fe89543c661d651},
	{-1.8148580188898937, 0x3fc4d8a156b08443},
	{-20.929134018465675, 0x3e0bf77ec12ca157},
	{-2.264222134663827, 0x3fba99e6780cbb99},
	{0.23360018607579697, 0x3ff435d1a0eb5dff},
	{-44.70426194966308, 0x3be6b645c402bdd1},
	{-138.67553307410435, 0x336e8ef1f7da3763},
	{312.3519515502951, 0x5c18bcba7f067fcd},
	{4.714191365673541, 0x405be130b1360fcd},
	{0.3466250728087914, 0x3ff6a0eabf0eee51},
	{298.4894754297486, 0x5ad8bfb08f257b11},
	{-3.1060936912363877, 0x3fa6ecd12e375b5d},

	{-2.481081978735454, 0x3fb56a42d991114b},
	{125.06630273793223, 0x4b3597f8fa81919a},
	{3.9622496387194754, 0x404a49a8f65964ce},
	{602.8898396215745, 0x764b9791f1acf9bd},

	{0, 0x3ff0000000000000},
	{math.Copysign(0, -1), 0x3ff0000000000000},
	{math.SmallestNonzeroFloat64, 0x3ff0000000000000},
	{1, 0x4005bf0a8b145769},
	{-1, 0x3fd78b56362cef38},
	{0.5, 0x3ffa61298e1e069c},
	{-0.5, 0x3fe368b2fc6f960a},
	{709.7, 0x7ff0000000000000},
	{7.09782712893384e+02, 0x7ff0000000000000},
	{math.MaxFloat64, 0x7ff0000000000000},
	{math.Inf(1), 0x7ff0000000000000},
	{-708.39, 0x101a5ff6ed496b},
	{-708.4, 0xff15b469edf89},
	{-740, 0x55},
	{-745.13, 0x1},
	{-745.14, 0},
	{-1e9, 0},
	{-math.MaxFloat64, 0},
	{math.Inf(-1), 0},
}

func TestExpBits(t *testing.T) {
	for _, c := range expBits {
		if got := math.Float64bits(Exp(c.x)); got != c.bits {
			t.Errorf("Exp(%v) = %#x, want %#x", c.x, got, c.bits)
		}
	}
	if nan := math.NaN(); math.Float64bits(Exp(nan)) != math.Float64bits(nan) {
		t.Errorf("Exp(NaN) = %v, want the NaN itself", Exp(nan))
	}
}

// requireFMAPath skips the test unless math.Exp takes amd64's FMA path here:
// elsewhere the standard library's bits are not the ones Exp reproduces. The
// probe is the expBits table, whose first arguments the FMA path rounds
// apart from amd64's other path and from the pure-Go exp.
func requireFMAPath(t *testing.T) {
	t.Helper()
	for _, c := range expBits {
		if math.Float64bits(math.Exp(c.x)) != c.bits {
			t.Skipf("math.Exp(%v) is not amd64's FMA path's: there is nothing to compare with", c.x)
		}
	}
}

// draws is how many random arguments each comparison makes.
func draws() int {
	if testing.Short() {
		return 100_000
	}
	return 10_000_000
}

// TestExpMatchesStdlib: on an FMA-capable amd64 CPU, Exp equals math.Exp bit
// for bit over the simulator's draw range (|x| ≤ 5 and standard normals)
// and the whole finite domain.
func TestExpMatchesStdlib(t *testing.T) {
	requireFMAPath(t)
	r := rand.New(rand.NewSource(1))
	for i := range draws() {
		var x float64
		switch i % 3 {
		case 0:
			x = r.Float64()*10 - 5
		case 1:
			x = r.NormFloat64()
		default:
			x = r.Float64()*1460 - 750
		}
		if got, want := Exp(x), math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Exp(%v) = %v, math.Exp gives %v", x, got, want)
		}
	}
}

// TestPowMatchesStdlib: on an FMA-capable amd64 CPU, Pow equals math.Pow bit
// for bit on the simulator's shapes — Pareto's (1-q)**(-1/alpha) and a
// quantile segment's ratio**frac — and on math.Pow's special cases.
func TestPowMatchesStdlib(t *testing.T) {
	requireFMAPath(t)
	same := func(x, y float64) bool {
		got, want := Pow(x, y), math.Pow(x, y)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("Pow(%v, %v) = %v, math.Pow gives %v", x, y, got, want)
			return false
		}
		return true
	}
	inf, nan := math.Inf(1), math.NaN()
	special := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 2, -2, 3, -3, 0.25, 1.5,
		1 << 53, 1 << 63, -(1 << 63), math.MaxFloat64, math.SmallestNonzeroFloat64, inf, -inf, nan}
	for _, x := range special {
		for _, y := range special {
			same(x, y)
		}
	}
	r := rand.New(rand.NewSource(2))
	for i, ok := 0, true; ok && i < draws(); i++ {
		if i%2 == 0 {
			ok = same(1-r.Float64(), -1/(0.5+r.Float64()*4.5))
		} else {
			ok = same(math.Exp(r.Float64()*40-20), r.Float64())
		}
	}
}
