package pynb

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func run(t *testing.T, src string) (*Interp, string) {
	t.Helper()
	in := New()
	out, err := in.Run(src)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return in, out
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("x = 1 + 2.5  # comment\n")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokIdent, TokOp, TokInt, TokOp, TokFloat, TokNewline, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("tok[%d] = %v, want %v", i, toks[i], k)
		}
	}
}

func TestLexIndentation(t *testing.T) {
	src := "if x:\n    y = 1\n    z = 2\nw = 3\n"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	var indents, dedents int
	for _, tok := range toks {
		switch tok.Kind {
		case TokIndent:
			indents++
		case TokDedent:
			dedents++
		}
	}
	if indents != 1 || dedents != 1 {
		t.Fatalf("indents=%d dedents=%d, want 1/1", indents, dedents)
	}
}

func TestLexBracketsSuppressNewlines(t *testing.T) {
	src := "xs = [1,\n      2,\n      3]\n"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	newlines := 0
	for _, tok := range toks {
		if tok.Kind == TokNewline {
			newlines++
		}
	}
	if newlines != 1 {
		t.Fatalf("newlines = %d, want 1 (inside brackets suppressed)", newlines)
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := Lex(`s = "a\nb\tc\"d"` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Text != "a\nb\tc\"d" {
		t.Fatalf("string = %q", toks[2].Text)
	}
	if _, err := Lex("s = \"unterminated\n"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Lex(`s = "bad \q esc"` + "\n"); err == nil {
		t.Error("unknown escape should fail")
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("x = 1 @ 2\n"); err == nil {
		t.Error("unknown character should fail")
	}
	if _, err := Lex("if x:\n    a = 1\n  b = 2\n"); err == nil {
		t.Error("inconsistent dedent should fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"x = \n",
		"1 = x\n",
		"if x\n    y = 1\n",
		"for in range(3):\n    pass\n",
		"f(a=1, 2)\n",
		"if x:\n",
		"x = (1 + \n",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestArithmetic(t *testing.T) {
	in, _ := run(t, `
a = 2 + 3 * 4
b = (2 + 3) * 4
c = 7 // 2
d = 7 / 2
e = 7 % 3
f = 2 ** 10
g = -5 + 1
h = 2.5 * 2
`)
	want := map[string]Value{
		"a": Int(14), "b": Int(20), "c": Int(3), "d": Float(3.5),
		"e": Int(1), "f": Int(1024), "g": Int(-4), "h": Float(5),
	}
	for k, v := range want {
		if got := in.Globals[k]; got != v {
			t.Errorf("%s = %v (%T), want %v", k, got, got, v)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	in := New()
	for _, src := range []string{"x = 1 / 0\n", "x = 1 // 0\n", "x = 1 % 0\n"} {
		if _, err := in.Run(src); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
}

func TestStringsAndLists(t *testing.T) {
	in, out := run(t, `
s = "hello" + " " + "world"
xs = [1, 2, 3]
xs.append(4)
xs[0] = 10
n = len(xs)
first = xs[0]
last = xs[-1]
sub = s[0]
print(s, n, first, last, sub)
`)
	if !strings.Contains(out, "hello world 4 10 4 h") {
		t.Fatalf("output = %q", out)
	}
	if got := in.Globals["n"]; got != Int(4) {
		t.Errorf("n = %v", got)
	}
}

func TestControlFlow(t *testing.T) {
	in, _ := run(t, `
total = 0
for i in range(10):
    if i % 2 == 0:
        continue
    if i > 7:
        break
    total += i
status = "small"
if total > 100:
    status = "big"
elif total > 10:
    status = "medium"
else:
    status = "small"
`)
	// odd i <= 7: 1+3+5+7 = 16 -> "medium"
	if got := in.Globals["total"]; got != Int(16) {
		t.Errorf("total = %v, want 16", got)
	}
	if got := in.Globals["status"]; got != Str("medium") {
		t.Errorf("status = %v, want medium", got)
	}
}

func TestBooleanShortCircuit(t *testing.T) {
	// The right side of `and` must not evaluate when left is falsy:
	// 1/0 would raise.
	in, _ := run(t, `
a = False and 1 / 0
b = True or 1 / 0
c = not False
`)
	if got := in.Globals["a"]; got != Bool(false) {
		t.Errorf("a = %v", got)
	}
	if got := in.Globals["b"]; got != Bool(true) {
		t.Errorf("b = %v", got)
	}
	if got := in.Globals["c"]; got != Bool(true) {
		t.Errorf("c = %v", got)
	}
}

func TestComparisonsAndMembership(t *testing.T) {
	in, _ := run(t, `
a = 3 < 5
b = "abc" == "abc"
c = 2 in [1, 2, 3]
d = "ell" in "hello"
e = 5 >= 5.0
f = [1, 2] == [1, 2]
`)
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		if got := in.Globals[k]; got != Bool(true) {
			t.Errorf("%s = %v, want True", k, got)
		}
	}
}

func TestCoreBuiltins(t *testing.T) {
	in, _ := run(t, `
a = sum([1, 2, 3])
b = min(5, 2, 9)
c = max([1.5, 2.5])
d = abs(-4)
e = round(2.7)
f = round(2.71828, 2)
g = int("42")
h = float(3)
i = str(99)
`)
	want := map[string]Value{
		"a": Int(6), "b": Int(2), "c": Float(2.5), "d": Int(4),
		"e": Int(3), "g": Int(42), "h": Float(3), "i": Str("99"),
	}
	for k, v := range want {
		if got := in.Globals[k]; got != v {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	f := in.Globals["f"].(Float)
	if math.Abs(float64(f)-2.72) > 1e-9 {
		t.Errorf("f = %v", f)
	}
}

func TestForOverListAndString(t *testing.T) {
	in, _ := run(t, `
acc = 0
for v in [10, 20, 30]:
    acc += v
s = ""
for ch in "abc":
    s = s + ch
`)
	if got := in.Globals["acc"]; got != Int(60) {
		t.Errorf("acc = %v", got)
	}
	if got := in.Globals["s"]; got != Str("abc") {
		t.Errorf("s = %v", got)
	}
}

func TestRuntimeErrors(t *testing.T) {
	bad := []string{
		"x = undefined_name\n",
		"x = [1][5]\n",
		"x = [1]['a']\n",
		"x = 5[0]\n",
		"x = \"a\" + 1\n",
		"x = [].pop()\n",
		"x = (5).missing()\n",
		"for v in 5:\n    pass\n",
		"x = -\"s\"\n",
	}
	for _, src := range bad {
		in := New()
		if _, err := in.Run(src); err == nil {
			t.Errorf("%q should fail at runtime", src)
		}
	}
}

func TestStepBudget(t *testing.T) {
	in := New()
	in.MaxSteps = 100
	if _, err := in.Run("for i in range(1000):\n    x = i\n"); err == nil {
		t.Fatal("step budget should trip")
	}
}

func TestObjectsAndMethods(t *testing.T) {
	in := New()
	model := NewObject("Model", 1<<20)
	model.Fields["name"] = Str("resnet18")
	model.Fields["epochs"] = Int(0)
	in.Globals["model"] = model
	in.registerMethod("Model", "train_step", func(c *CallCtx) (Value, error) {
		m := c.Recv.(*Object)
		m.Fields["epochs"] = m.Fields["epochs"].(Int) + 1
		return Float(0.42), nil
	})
	out, err := in.Run(`
loss = model.train_step()
loss = model.train_step()
print(model.name, model.epochs, loss)
`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "resnet18 2 0.42") {
		t.Fatalf("output = %q", out)
	}
	if model.Fields["epochs"] != Int(2) {
		t.Errorf("epochs = %v", model.Fields["epochs"])
	}
}

func TestAnalyzeAssigned(t *testing.T) {
	m, err := Parse(`
x = 1
y += 2
zs[0] = 3
for i in range(3):
    w = i
model.load_state(ckpt)
q = unrelated + 1
if cond:
    nested = True
`)
	if err != nil {
		t.Fatal(err)
	}
	got := AnalyzeAssigned(m)
	want := []string{"i", "model", "nested", "q", "w", "x", "y", "zs"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AnalyzeAssigned = %v, want %v", got, want)
	}
}

func TestAnalyzeReferenced(t *testing.T) {
	m, err := Parse("y = x + f(z)\n")
	if err != nil {
		t.Fatal(err)
	}
	got := analyzeReferenced(m)
	want := []string{"f", "x", "y", "z"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("analyzeReferenced = %v, want %v", got, want)
	}
}

func TestValueSizes(t *testing.T) {
	if Int(1).SizeBytes() != 8 || Float(1).SizeBytes() != 8 {
		t.Error("number sizes")
	}
	if Str("abcd").SizeBytes() != 20 {
		t.Errorf("str size = %d", Str("abcd").SizeBytes())
	}
	big := NewObject("Model", 500<<20)
	if big.SizeBytes() < 500<<20 {
		t.Error("object payload must dominate size")
	}
	lst := newList(Int(1), Int(2))
	if lst.SizeBytes() <= 24 {
		t.Error("list size must include elements")
	}
}

func TestValueReprs(t *testing.T) {
	cases := map[string]Value{
		"1":        Int(1),
		"1.5":      Float(1.5),
		"2.0":      Float(2.0),
		"True":     Bool(true),
		"None":     None{},
		"hi":       Str("hi"),
		`[1, "a"]`: newList(Int(1), Str("a")),
	}
	for want, v := range cases {
		if got := v.Repr(); got != want {
			t.Errorf("Repr(%T) = %q, want %q", v, got, want)
		}
	}
	o := NewObject("Dataset", 0)
	o.Fields["name"] = Str("cifar10")
	if got := o.Repr(); !strings.Contains(got, "Dataset") {
		t.Errorf("object repr = %q", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	obj := NewObject("Model", 12345)
	obj.Fields["name"] = Str("bert")
	obj.Fields["layers"] = newList(Int(12), Int(24))
	values := []Value{
		Int(-7), Float(3.25), Str("hello"), Bool(true), None{},
		newList(Int(1), Str("x"), newList(Float(2.5))),
		obj,
	}
	for _, v := range values {
		data, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
		back, err := DecodeValue(data)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if back.Repr() != v.Repr() || back.SizeBytes() != v.SizeBytes() {
			t.Errorf("round trip %v -> %v", v.Repr(), back.Repr())
		}
	}
}

func TestCodecRejectsBuiltin(t *testing.T) {
	if _, err := EncodeValue(&Builtin{Name: "f"}); err == nil {
		t.Error("builtins must not serialize")
	}
	if _, err := DecodeValue([]byte(`{"t":"mystery"}`)); err == nil {
		t.Error("unknown type must fail")
	}
	if _, err := DecodeValue([]byte(`not json`)); err == nil {
		t.Error("bad json must fail")
	}
}

// Property: integer arithmetic in pynb matches Go semantics for + - *.
func TestArithmeticMatchesGoProperty(t *testing.T) {
	f := func(a, b int16) bool {
		in := New()
		in.Globals["a"] = Int(int64(a))
		in.Globals["b"] = Int(int64(b))
		if _, err := in.Run("s = a + b\nd = a - b\np = a * b\n"); err != nil {
			return false
		}
		return in.Globals["s"] == Int(int64(a)+int64(b)) &&
			in.Globals["d"] == Int(int64(a)-int64(b)) &&
			in.Globals["p"] == Int(int64(a)*int64(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: codec round trip preserves Repr for arbitrary nested values.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(i int64, fv float64, s string, b bool) bool {
		if math.IsNaN(fv) || math.IsInf(fv, 0) {
			fv = 0
		}
		v := newList(Int(i), Float(fv), Str(s), Bool(b), None{})
		data, err := EncodeValue(v)
		if err != nil {
			return false
		}
		back, err := DecodeValue(data)
		if err != nil {
			return false
		}
		return back.Repr() == v.Repr()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTokenAndKindStrings(t *testing.T) {
	if TokIdent.String() != "IDENT" {
		t.Error("kind string")
	}
	if TokKind(99).String() == "" {
		t.Error("unknown kind should render")
	}
	tok := Token{Kind: TokInt, Text: "5", Line: 1, Col: 2}
	if !strings.Contains(tok.String(), "INT") {
		t.Error("token string")
	}
}
