package pynb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is a runtime value in the pynb interpreter. Values know their size
// so the kernel's state-replication layer can decide which globals are
// "small" (replicated inline through the Raft log) and which are "large"
// (checkpointed to the distributed data store with a pointer in the log),
// per paper §3.2.4.
type Value interface {
	// Type returns the Python-style type name.
	Type() string
	// Repr renders the value the way print would.
	Repr() string
	// SizeBytes estimates the value's in-memory size.
	SizeBytes() int64
}

// Int is an integer value.
type Int int64

// Type implements Value.
func (Int) Type() string { return "int" }

// Repr implements Value.
func (v Int) Repr() string { return strconv.FormatInt(int64(v), 10) }

// SizeBytes implements Value.
func (Int) SizeBytes() int64 { return 8 }

// Float is a floating-point value.
type Float float64

// Type implements Value.
func (Float) Type() string { return "float" }

// Repr implements Value: Python's spelling, so inf, -inf and nan, and a
// whole number keeps its ".0".
func (v Float) Repr() string {
	f := float64(v)
	switch {
	case math.IsNaN(f):
		return "nan"
	case math.IsInf(f, 1):
		return "inf"
	case math.IsInf(f, -1):
		return "-inf"
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// SizeBytes implements Value.
func (Float) SizeBytes() int64 { return 8 }

// Str is a string value.
type Str string

// Type implements Value.
func (Str) Type() string { return "str" }

// Repr implements Value.
func (v Str) Repr() string { return string(v) }

// SizeBytes implements Value.
func (v Str) SizeBytes() int64 { return int64(len(v)) + 16 }

// None is the unit value: what print returns.
type None struct{}

// Type implements Value.
func (None) Type() string { return "NoneType" }

// Repr implements Value.
func (None) Repr() string { return "None" }

// SizeBytes implements Value.
func (None) SizeBytes() int64 { return 0 }

// Object is a structured value with named fields and an explicit payload
// size — models, datasets, and tensors in the notebook runtime. Class tags
// the object's kind ("Model", "Dataset", "Tensor", ...).
type Object struct {
	Class string
	// Fields holds the object's attributes.
	Fields map[string]Value
	// Payload is the object's bulk size in bytes (e.g. model parameters);
	// SizeBytes adds it to the fields' sizes. This is what makes models
	// and datasets "large objects" in the replication protocol.
	Payload int64
}

// NewObject returns an object of the given class.
func NewObject(class string, payload int64) *Object {
	return &Object{Class: class, Fields: map[string]Value{}, Payload: payload}
}

// Type implements Value.
func (o *Object) Type() string { return o.Class }

// Repr implements Value.
func (o *Object) Repr() string {
	name := ""
	if v, ok := o.Fields["name"]; ok {
		name = " " + v.Repr()
	}
	return fmt.Sprintf("<%s%s>", o.Class, name)
}

// SizeBytes implements Value.
func (o *Object) SizeBytes() int64 {
	n := o.Payload + 48
	for _, v := range o.Fields {
		n += v.SizeBytes()
	}
	return n
}

// Builtin is a callable provided by the runtime.
type Builtin struct {
	Name string
	Fn   func(call *CallCtx) (Value, error)
}

// Type implements Value.
func (*Builtin) Type() string { return "builtin_function_or_method" }

// Repr implements Value.
func (b *Builtin) Repr() string { return fmt.Sprintf("<built-in function %s>", b.Name) }

// SizeBytes implements Value.
func (*Builtin) SizeBytes() int64 { return 8 }

// CallCtx carries the arguments of a builtin invocation.
type CallCtx struct {
	Args []Value
	Kw   map[string]Value
}

// Arg returns the i-th positional argument or an error.
func (c *CallCtx) Arg(i int) (Value, error) {
	if i >= len(c.Args) {
		return nil, fmt.Errorf("pynb: missing argument %d", i)
	}
	return c.Args[i], nil
}

// KwInt returns keyword argument name as an int, or def if absent; a float
// argument is truncated.
func (c *CallCtx) KwInt(name string, def int64) (int64, error) {
	if v, ok := c.Kw[name].(Int); ok {
		return int64(v), nil
	}
	f, err := c.KwFloat(name, float64(def))
	return int64(f), err
}

// KwFloat returns keyword argument name as a float, or def if absent.
func (c *CallCtx) KwFloat(name string, def float64) (float64, error) {
	v, ok := c.Kw[name]
	if !ok {
		return def, nil
	}
	f, ok := toFloat(v)
	if !ok {
		return 0, fmt.Errorf("pynb: keyword %q must be a number, got %s", name, v.Type())
	}
	return f, nil
}
