package jupyter

import (
	"encoding/json"
	"strings"
	"testing"
)

func mustNew(t *testing.T, msgType string, content any) Message {
	t.Helper()
	m, err := New(msgType, "s", "u", content)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewAndValidate(t *testing.T) {
	m, err := New(MsgExecuteRequest, "sess-1", "alice", ExecuteRequestContent{Code: "x = 1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if m.Header.MsgType != MsgExecuteRequest || m.Header.Session != "sess-1" {
		t.Fatalf("header = %+v", m.Header)
	}
	if m.Header.Version != ProtocolVersion {
		t.Errorf("version = %q", m.Header.Version)
	}
}

func TestValidateCatchesMissingFields(t *testing.T) {
	var m Message
	if m.Validate() == nil {
		t.Error("empty message must not validate")
	}
	m.Header.MsgID = "x"
	if m.Validate() == nil {
		t.Error("missing type must not validate")
	}
	m.Header.MsgType = "status"
	if m.Validate() == nil {
		t.Error("missing session must not validate")
	}
	m.Header.Session = "s"
	if m.Validate() != nil {
		t.Error("complete header must validate")
	}
}

func TestUniqueMsgIDs(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewMsgID()
		if seen[id] {
			t.Fatalf("duplicate msg id %s", id)
		}
		seen[id] = true
	}
}

func TestChildLinksParent(t *testing.T) {
	req := mustNew(t, MsgExecuteRequest, ExecuteRequestContent{Code: "y"})
	req.KernelID = "kernel-7"
	reply, err := req.Child(MsgExecuteReply, ExecuteReplyContent{Status: "ok", ExecutionCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	if reply.ParentHeader == nil || reply.ParentHeader.MsgID != req.Header.MsgID {
		t.Fatal("parent header not linked")
	}
	if reply.KernelID != "kernel-7" {
		t.Fatal("kernel routing not inherited")
	}
	if reply.Header.Session != "s" {
		t.Fatal("session not inherited")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := mustNew(t, MsgExecuteRequest, ExecuteRequestContent{Code: "a = 1\n"})
	m.KernelID = "k1"
	m = m.WithMeta(MetaGPUDeviceIDs, "[0,1]")
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var back Message
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Header.MsgID != m.Header.MsgID || back.KernelID != "k1" {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if back.Metadata[MetaGPUDeviceIDs] != "[0,1]" {
		t.Fatal("metadata lost")
	}
	c, err := back.ParseExecuteRequest()
	if err != nil || c.Code != "a = 1\n" {
		t.Fatalf("content = %+v, %v", c, err)
	}
}

func TestAsYield(t *testing.T) {
	req := mustNew(t, MsgExecuteRequest, ExecuteRequestContent{Code: "train()"})
	y := req.AsYield(2)
	if y.Header.MsgType != MsgYieldRequest {
		t.Fatalf("type = %s", y.Header.MsgType)
	}
	if y.Metadata[MetaTargetReplica] != "2" {
		t.Fatalf("target = %q", y.Metadata[MetaTargetReplica])
	}
	// Original must be unchanged (WithMeta copies).
	if req.Header.MsgType != MsgExecuteRequest || len(req.Metadata) != 0 {
		t.Fatal("AsYield mutated original")
	}
	// Yield requests still parse as execute content.
	if _, err := y.ParseExecuteRequest(); err != nil {
		t.Fatalf("yield parse: %v", err)
	}
}

func TestParseWrongType(t *testing.T) {
	m := mustNew(t, "status", map[string]string{"execution_state": "busy"})
	if _, err := m.ParseExecuteRequest(); err == nil {
		t.Error("status must not parse as execute_request")
	}
	if _, err := m.ParseExecuteReply(); err == nil {
		t.Error("status must not parse as execute_reply")
	}
}

func TestParseExecuteReply(t *testing.T) {
	m := mustNew(t, MsgExecuteReply, ExecuteReplyContent{
		Status: "error", EName: "NameError", EValue: "x is not defined", Replica: 2, Yielded: false,
	})
	c, err := m.ParseExecuteReply()
	if err != nil {
		t.Fatal(err)
	}
	if c.Status != "error" || c.EName != "NameError" || c.Replica != 2 {
		t.Fatalf("content = %+v", c)
	}
}

func TestNewRejectsUnmarshalable(t *testing.T) {
	if _, err := New(MsgExecuteReply, "s", "u", make(chan int)); err == nil {
		t.Error("unmarshalable content must fail")
	}
	if !strings.Contains(MsgYieldRequest, "yield") {
		t.Error("yield constant sanity")
	}
}
