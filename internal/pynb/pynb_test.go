package pynb

import (
	"errors"
	"math"
	"reflect"
	"runtime/debug"
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

// refusal fails t unless src is refused at parse time with a *SyntaxError
// whose message is want.
func refusal(t *testing.T, src, want string) {
	t.Helper()
	_, err := Parse(src)
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Errorf("Parse(%q) = %v, want a *SyntaxError", src, err)
		return
	}
	if se.Msg != want {
		t.Errorf("Parse(%q): %q, want %q", src, se.Msg, want)
	}
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

// TestLexIndentation: the language has no blocks, so a line that starts
// with whitespace is refused; blank and comment-only lines, and lines
// continued inside parentheses, may be indented.
func TestLexIndentation(t *testing.T) {
	for _, src := range []string{"x = 1\n    y = 2\n", "x = 1\n\ty = 2\n", " x = 1\n"} {
		refusal(t, src, "unsupported construct: indented line")
	}
	in, _ := run(t, "x = (1 +\n     2)\n    # an indented comment\n   \ny = x\n")
	if in.Globals["y"] != Int(3) {
		t.Fatalf("y = %v", in.Globals["y"])
	}
}

func TestLexBracketsSuppressNewlines(t *testing.T) {
	toks, err := Lex("x = (1 +\n      2 +\n      3)\n")
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
	// A string that is not UTF-8 would not survive the codec's JSON.
	if _, err := Lex("x = \"\xff\"\n"); err == nil {
		t.Error("a cell that is not UTF-8 should fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"x = \n",
		"1 = x\n",
		"m.name = 1\n",
		"f(a=1, 2)\n",
		"x = (1 + \n",
		"x = y = 1\n",
		"x = 1.2.3\n",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestControlFlow: the language has no blocks; each statement that opens
// or steers one is refused by name.
func TestControlFlow(t *testing.T) {
	for src, what := range map[string]string{
		"if x:\n    y = 1\n":        "if statement",
		"x = 1 if y else 2\n":       "if statement",
		"elif x:\n":                 "elif clause",
		"else:\n":                   "else clause",
		"for i in xs:\n    y = i\n": "for loop",
		"pass\n":                    "pass statement",
		"break\n":                   "break statement",
		"continue\n":                "continue statement",
		"x = 1\nif x:\n    x = 2\nelse:\n    x = 3\n": "if statement",
	} {
		refusal(t, src, "unsupported construct: "+what)
	}
}

// TestRefusedAssignments: only `name = expr` assigns.
func TestRefusedAssignments(t *testing.T) {
	for src, what := range map[string]string{
		"x += 1\n":    "augmented assignment (+=)",
		"x -= 1\n":    "augmented assignment (-=)",
		"x *= 2\n":    "augmented assignment (*=)",
		"x /= 2\n":    "augmented assignment (/=)",
		"xs[0] = 1\n": "indexing",
	} {
		refusal(t, src, "unsupported construct: "+what)
	}
}

// TestComparisonsAndMembership: no comparison or membership test parses.
func TestComparisonsAndMembership(t *testing.T) {
	for src, what := range map[string]string{
		"a = 3 < 5\n":   "comparison (<)",
		"a = 3 <= 5\n":  "comparison (<=)",
		"a = 3 > 5\n":   "comparison (>)",
		"a = 3 >= 5\n":  "comparison (>=)",
		"a = x == y\n":  "comparison (==)",
		"a = x != y\n":  "comparison (!=)",
		"a = 2 in xs\n": "membership test (in)",
	} {
		refusal(t, src, "unsupported construct: "+what)
	}
}

// TestRefusedOperatorsAndLiterals: and/or/not, //, %, ** and the literals
// True, False and None are outside the language.
func TestRefusedOperatorsAndLiterals(t *testing.T) {
	for src, what := range map[string]string{
		"a = x and y\n": "boolean operator (and)",
		"a = x or y\n":  "boolean operator (or)",
		"a = not x\n":   "boolean operator (not)",
		"a = 7 // 2\n":  "operator //",
		"a = 7 % 3\n":   "operator %",
		"a = 2 ** 10\n": "operator **",
		"a = True\n":    "literal True",
		"a = False\n":   "literal False",
		"a = None\n":    "literal None",
	} {
		refusal(t, src, "unsupported construct: "+what)
	}
}

func TestArithmetic(t *testing.T) {
	in, _ := run(t, `
a = 2 + 3 * 4
b = (2 + 3) * 4
c = 7 - 2 - 1
d = 7 / 2
e = 8 / 4
f = -(2 + 3)
g = -5 + 1
h = 2.5 * 2
i = - -3
`)
	want := map[string]Value{
		"a": Int(14), "b": Int(20), "c": Int(4), "d": Float(3.5),
		"e": Float(2), "f": Int(-5), "g": Int(-4), "h": Float(5), "i": Int(3),
	}
	for k, v := range want {
		if got := in.Globals[k]; got != v {
			t.Errorf("%s = %v (%T), want %v", k, got, got, v)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	in := New()
	for _, src := range []string{"x = 1 / 0\n", "x = 1.5 / 0.0\n"} {
		var rerr *RuntimeError
		if _, err := in.Run(src); !errors.As(err, &rerr) || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("%q: %v, want a division by zero", src, err)
		}
	}
}

// TestStringsAndLists: strings concatenate; list literals and indexing
// are refused.
func TestStringsAndLists(t *testing.T) {
	in, out := run(t, `
s = "hello" + " " + 'world'
print(s, 4, 2.5)
`)
	if out != "hello world 4 2.5\n" {
		t.Fatalf("output = %q", out)
	}
	if got := in.Globals["s"]; got != Str("hello world") {
		t.Errorf("s = %v", got)
	}
	refusal(t, "xs = [1, 2, 3]\n", "unsupported construct: list literal")
	refusal(t, "x = s[0]\n", "unsupported construct: indexing")
	refusal(t, "x = f(1)[0]\n", "unsupported construct: indexing")
}

// TestCoreBuiltins: print is the one core builtin; the builtins the
// language used to carry are not defined.
func TestCoreBuiltins(t *testing.T) {
	in, out := run(t, "r = print(\"a\", 1, 2.0, -0.5)\nprint()\n")
	if out != "a 1 2.0 -0.5\n\n" {
		t.Fatalf("output = %q", out)
	}
	if in.Globals["r"] != (None{}) {
		t.Errorf("print returned %v", in.Globals["r"])
	}
	for _, name := range []string{"len", "range", "str", "int", "float", "abs", "sum", "min", "max", "round"} {
		_, err := New().Run("x = " + name + "(1)\n")
		var rerr *RuntimeError
		if !errors.As(err, &rerr) || rerr.Msg != `name "`+name+`" is not defined` {
			t.Errorf("%s(1): %v, want name %q is not defined", name, err, name)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	bad := []string{
		"x = undefined_name\n",
		"x = \"a\" + 1\n",
		"x = 1 + \"a\"\n",
		"x = \"a\" * 2\n",
		"x = -\"s\"\n",
		"x = 5(1)\n",
		"x = print.name\n",
		"x = undefined_f(1)\n",
		"x = print(undefined_arg)\n",
		"x = print(k=undefined_kw)\n",
	}
	for _, src := range bad {
		var rerr *RuntimeError
		if _, err := New().Run(src); !errors.As(err, &rerr) {
			t.Errorf("%q: %v, want a *RuntimeError", src, err)
		}
	}
}

// TestObjectsAndMethods: objects come from builtins, which may change them
// in place; cells read their attributes. A method call is refused.
func TestObjectsAndMethods(t *testing.T) {
	in := New()
	model := NewObject("Model", 1<<20)
	model.Fields["name"] = Str("resnet18")
	model.Fields["epochs"] = Int(0)
	in.Globals["model"] = model
	in.RegisterBuiltin("train_step", func(c *CallCtx) (Value, error) {
		m := c.Args[0].(*Object)
		m.Fields["epochs"] = m.Fields["epochs"].(Int) + 1
		return Float(0.42), nil
	})
	out, err := in.Run(`
loss = train_step(model)
loss = train_step(model)
print(model.name, model.epochs, loss)
`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "resnet18 2 0.42\n" {
		t.Fatalf("output = %q", out)
	}
	if model.Fields["epochs"] != Int(2) {
		t.Errorf("epochs = %v", model.Fields["epochs"])
	}
	if _, err := in.Run("x = model.missing\n"); err == nil {
		t.Error("a missing attribute should fail")
	}
	refusal(t, "model.train_step()\n", "unsupported construct: method call")
	refusal(t, "x = (model.step)(1)\n", "unsupported construct: method call")
}

func TestAnalyzeAssigned(t *testing.T) {
	m, err := Parse(`
x = 1
y = f(a, b.c, k=d.e.f, j=1 + g)
q = unrelated + 1
print(p, "s", 2)
h(-n)
`)
	if err != nil {
		t.Fatal(err)
	}
	got := AnalyzeAssigned(m)
	want := []string{"a", "b", "d", "p", "q", "x", "y"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AnalyzeAssigned = %v, want %v", got, want)
	}
}

// TestDepthCap: an expression tree deeper than 200 levels, or parentheses,
// unary minus or call arguments nested 200 deep (where CPython stops), is
// refused, so no cell can overflow the parser's or the interpreter's stack.
// On a 16 MiB stack a 1 MiB cell of either kind crashed the process: a
// stack overflow is fatal, past any recover.
func TestDepthCap(t *testing.T) {
	const limit = 200
	const deep = "expression nested more than 200 levels deep"
	chain := func(n int) string { return "x = 1" + strings.Repeat("+1", n-1) + "\n" }
	in, _ := run(t, chain(limit))
	if in.Globals["x"] != Int(limit) {
		t.Fatalf("x = %v", in.Globals["x"])
	}
	if _, err := Parse(chain(limit + 1)); err == nil || !strings.Contains(err.Error(), deep) {
		t.Fatalf("a tree %d deep: %v, want it refused", limit+1, err)
	}
	nested := func(open, close string, n int) string {
		return "x = " + strings.Repeat(open, n) + "1" + strings.Repeat(close, n) + "\n"
	}
	for _, c := range []struct{ open, close string }{{"(", ")"}, {"-", ""}, {"print(", ")"}} {
		if _, err := Parse(nested(c.open, c.close, limit-1)); err != nil {
			t.Errorf("%q nested %d deep: %v", c.open, limit-1, err)
		}
		if _, err := Parse(nested(c.open, c.close, limit)); err == nil || !strings.Contains(err.Error(), deep) {
			t.Fatalf("%q nested %d deep: %v, want it refused", c.open, limit, err)
		}
	}
	refusal(t, "x = a"+strings.Repeat(".b", limit)+"\n", deep)

	defer debug.SetMaxStack(debug.SetMaxStack(16 << 20))
	for _, src := range []string{nested("(", ")", 1<<19), chain(1 << 19)} {
		var se *SyntaxError
		if _, err := New().Run(src); !errors.As(err, &se) {
			t.Errorf("a %d-byte cell: %v, want a *SyntaxError", len(src), err)
		}
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
	big.Fields["name"] = Str("vgg16")
	if big.SizeBytes() != 500<<20+48+21 {
		t.Errorf("object size = %d: payload plus header plus fields", big.SizeBytes())
	}
}

func TestValueReprs(t *testing.T) {
	cases := map[string]Value{
		"1":    Int(1),
		"1.5":  Float(1.5),
		"2.0":  Float(2.0),
		"inf":  Float(math.Inf(1)),
		"-inf": Float(math.Inf(-1)),
		"nan":  Float(math.NaN()),
		"None": None{},
		"hi":   Str("hi"),
	}
	for want, v := range cases {
		if got := v.Repr(); got != want {
			t.Errorf("Repr(%T) = %q, want %q", v, got, want)
		}
	}
	o := NewObject("Dataset", 0)
	o.Fields["name"] = Str("cifar10")
	if got := o.Repr(); got != "<Dataset cifar10>" {
		t.Errorf("object repr = %q", got)
	}
}

// roundTrips reports whether v survives EncodeValue and DecodeValue: the
// decoded value encodes to the same bytes and prints the same.
func roundTrips(t *testing.T, v Value) bool {
	t.Helper()
	data, err := EncodeValue(v)
	if err != nil {
		t.Errorf("encode %s: %v", v.Repr(), err)
		return false
	}
	back, err := DecodeValue(data)
	if err != nil {
		t.Errorf("decode %s: %v", v.Repr(), err)
		return false
	}
	again, err := EncodeValue(back)
	if err != nil || string(again) != string(data) || back.Repr() != v.Repr() || back.SizeBytes() != v.SizeBytes() {
		t.Errorf("round trip %s (%s) -> %s (%s)", v.Repr(), data, back.Repr(), again)
		return false
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	obj := NewObject("Model", 12345)
	obj.Fields["name"] = Str("bert")
	obj.Fields["loss"] = Float(math.Inf(1))
	inner := NewObject("TrainResult", 0)
	inner.Fields["epochs"] = Int(2)
	obj.Fields["last"] = inner
	for _, v := range []Value{
		Int(-7), Float(3.25), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()),
		Float(math.Copysign(0, -1)), Float(math.SmallestNonzeroFloat64), Str("hello"), Str(""), None{}, obj,
	} {
		roundTrips(t, v)
	}
}

func TestCodecRejectsBuiltin(t *testing.T) {
	if _, err := EncodeValue(&Builtin{Name: "f"}); err == nil {
		t.Error("builtins must not serialize")
	}
	for _, bad := range []string{`{"t":"mystery"}`, `not json`, `{"t":"float","s":"x"}`} {
		if _, err := DecodeValue([]byte(bad)); err == nil {
			t.Errorf("%s must fail", bad)
		}
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

// Property: the codec round-trips every int, float (non-finite too) and
// string, alone and as an object's fields.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(i int64, fv float64, s string, special uint8) bool {
		switch special % 4 {
		case 1:
			fv = math.Inf(1)
		case 2:
			fv = math.NaN()
		}
		s = strings.ToValidUTF8(s, "?")
		o := NewObject("Model", i&0xffff)
		o.Fields["i"], o.Fields["f"], o.Fields["s"], o.Fields["n"] = Int(i), Float(fv), Str(s), None{}
		return roundTrips(t, Int(i)) && roundTrips(t, Float(fv)) && roundTrips(t, Str(s)) && roundTrips(t, o)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTokenAndKindStrings(t *testing.T) {
	if TokIdent.String() != "IDENT" {
		t.Error("kind string")
	}
	if TokKind(99).String() != "TokKind(99)" || TokKind(-1).String() != "TokKind(-1)" {
		t.Error("unknown kind should render")
	}
	tok := Token{Kind: TokInt, Text: "5", Line: 1, Col: 2}
	if tok.String() != `INT("5")@1:2` {
		t.Errorf("token string = %s", tok)
	}
}
