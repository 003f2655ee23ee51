package pynb

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// wireValue is the JSON envelope for serialized values. Kernel replicas
// serialize updated globals into Raft log entries (small values) or the
// distributed data store (large values) using this format. A float travels
// as its shortest decimal string in S, so ±Inf and NaN (an untrained
// model's loss) round-trip where a JSON number cannot hold them.
type wireValue struct {
	T       string               `json:"t"`
	Int     int64                `json:"i,omitempty"`
	Str     string               `json:"s,omitempty"`
	Class   string               `json:"c,omitempty"`
	Payload int64                `json:"p,omitempty"`
	Fields  map[string]wireValue `json:"fl,omitempty"`
}

// EncodeValue serializes a value. Builtins cannot be serialized.
func EncodeValue(v Value) ([]byte, error) {
	w, err := toWire(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// DecodeValue parses a value serialized by EncodeValue.
func DecodeValue(data []byte) (Value, error) {
	var w wireValue
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("pynb: decode: %w", err)
	}
	return fromWire(w)
}

func toWire(v Value) (wireValue, error) {
	switch x := v.(type) {
	case Int:
		return wireValue{T: "int", Int: int64(x)}, nil
	case Float:
		return wireValue{T: "float", Str: strconv.FormatFloat(float64(x), 'g', -1, 64)}, nil
	case Str:
		return wireValue{T: "str", Str: string(x)}, nil
	case None:
		return wireValue{T: "none"}, nil
	case *Object:
		w := wireValue{T: "obj", Class: x.Class, Payload: x.Payload, Fields: map[string]wireValue{}}
		for k, f := range x.Fields {
			fw, err := toWire(f)
			if err != nil {
				return wireValue{}, err
			}
			w.Fields[k] = fw
		}
		return w, nil
	default:
		return wireValue{}, fmt.Errorf("pynb: cannot serialize %s", v.Type())
	}
}

func fromWire(w wireValue) (Value, error) {
	switch w.T {
	case "int":
		return Int(w.Int), nil
	case "float":
		f, err := strconv.ParseFloat(w.Str, 64)
		if err != nil {
			return nil, fmt.Errorf("pynb: decode float: %w", err)
		}
		return Float(f), nil
	case "str":
		return Str(w.Str), nil
	case "none":
		return None{}, nil
	case "obj":
		o := NewObject(w.Class, w.Payload)
		for k, fw := range w.Fields {
			f, err := fromWire(fw)
			if err != nil {
				return nil, err
			}
			o.Fields[k] = f
		}
		return o, nil
	default:
		return nil, fmt.Errorf("pynb: unknown wire type %q", w.T)
	}
}
