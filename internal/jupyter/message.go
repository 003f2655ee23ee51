package jupyter

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"
)

// Message type constants from the IPython wire protocol, plus the
// NotebookOS-specific yield_request (an execute_request converted by the
// Global Scheduler to tell a replica not to contend for execution).
const (
	MsgExecuteRequest = "execute_request"
	MsgYieldRequest   = "yield_request"
	MsgExecuteReply   = "execute_reply"
)

// ProtocolVersion is the advertised protocol version.
const ProtocolVersion = "5.3"

// Header identifies a message and its session.
type Header struct {
	MsgID    string    `json:"msg_id"`
	MsgType  string    `json:"msg_type"`
	Session  string    `json:"session"`
	Username string    `json:"username"`
	Date     time.Time `json:"date"`
	Version  string    `json:"version"`
}

// Message is a Jupyter protocol envelope.
type Message struct {
	Header       Header            `json:"header"`
	ParentHeader *Header           `json:"parent_header,omitempty"`
	Metadata     map[string]string `json:"metadata,omitempty"`
	Content      json.RawMessage   `json:"content"`
	// KernelID is the routing key NotebookOS's Global Scheduler uses to
	// deliver the message to the right distributed kernel's replicas.
	KernelID string `json:"kernel_id,omitempty"`
}

// Metadata keys NotebookOS embeds in requests (paper §3.3: the Global
// Scheduler embeds allocated GPU device IDs in request metadata).
const (
	MetaGPUDeviceIDs   = "gpu_device_ids"
	MetaTargetReplica  = "target_replica"
	MetaElectionTermID = "election_term"
)

var msgCounter atomic.Int64

// NewMsgID returns a unique message ID.
func NewMsgID() string {
	return fmt.Sprintf("msg-%d-%d", time.Now().UnixNano(), msgCounter.Add(1))
}

// New creates a message of the given type in the given session.
func New(msgType, session, username string, content any) (Message, error) {
	raw, err := json.Marshal(content)
	if err != nil {
		return Message{}, fmt.Errorf("jupyter: marshal content: %w", err)
	}
	return Message{
		Header: Header{
			MsgID:    NewMsgID(),
			MsgType:  msgType,
			Session:  session,
			Username: username,
			Date:     time.Now().UTC(),
			Version:  ProtocolVersion,
		},
		Metadata: map[string]string{},
		Content:  raw,
	}, nil
}

// Child creates a reply-style message whose parent header is m's header
// and which inherits m's session and kernel routing.
func (m Message) Child(msgType string, content any) (Message, error) {
	c, err := New(msgType, m.Header.Session, m.Header.Username, content)
	if err != nil {
		return Message{}, err
	}
	parent := m.Header
	c.ParentHeader = &parent
	c.KernelID = m.KernelID
	return c, nil
}

// WithMeta returns a copy of m with the metadata key set.
func (m Message) WithMeta(key, value string) Message {
	meta := make(map[string]string, len(m.Metadata)+1)
	for k, v := range m.Metadata {
		meta[k] = v
	}
	meta[key] = value
	m.Metadata = meta
	return m
}

// AsYield converts an execute_request into a yield_request targeted at the
// designated executor replica (paper §3.2.2: "it will convert the
// execute_request message into a yield_request").
func (m Message) AsYield(targetReplica int) Message {
	out := m
	out.Header.MsgType = MsgYieldRequest
	out = out.WithMeta(MetaTargetReplica, fmt.Sprint(targetReplica))
	return out
}

// Encode serializes the message.
func (m Message) Encode() ([]byte, error) { return json.Marshal(m) }

// Validate checks required envelope fields.
func (m Message) Validate() error {
	switch {
	case m.Header.MsgID == "":
		return fmt.Errorf("jupyter: missing msg_id")
	case m.Header.MsgType == "":
		return fmt.Errorf("jupyter: missing msg_type")
	case m.Header.Session == "":
		return fmt.Errorf("jupyter: missing session")
	}
	return nil
}

// ExecuteRequestContent is the content of execute_request / yield_request.
type ExecuteRequestContent struct {
	Code         string `json:"code"`
	Silent       bool   `json:"silent"`
	StoreHistory bool   `json:"store_history"`
}

// ExecuteReplyContent is the content of execute_reply.
type ExecuteReplyContent struct {
	Status         string `json:"status"` // "ok" or "error"
	ExecutionCount int    `json:"execution_count"`
	// Output carries captured stdout (NotebookOS merges replica replies,
	// so a single field suffices for the prototype).
	Output string `json:"output,omitempty"`
	// EName/EValue describe the error when Status == "error".
	EName  string `json:"ename,omitempty"`
	EValue string `json:"evalue,omitempty"`
	// Replica identifies which kernel replica executed the code.
	Replica int `json:"replica,omitempty"`
	// Yielded marks replies from standby replicas that did not execute.
	Yielded bool `json:"yielded,omitempty"`
}

// ParseExecuteRequest extracts execute/yield request content.
func (m Message) ParseExecuteRequest() (ExecuteRequestContent, error) {
	var c ExecuteRequestContent
	if m.Header.MsgType != MsgExecuteRequest && m.Header.MsgType != MsgYieldRequest {
		return c, fmt.Errorf("jupyter: %s is not an execute/yield request", m.Header.MsgType)
	}
	if err := json.Unmarshal(m.Content, &c); err != nil {
		return c, fmt.Errorf("jupyter: parse execute_request: %w", err)
	}
	return c, nil
}

// ParseExecuteReply extracts execute_reply content.
func (m Message) ParseExecuteReply() (ExecuteReplyContent, error) {
	var c ExecuteReplyContent
	if m.Header.MsgType != MsgExecuteReply {
		return c, fmt.Errorf("jupyter: %s is not an execute_reply", m.Header.MsgType)
	}
	if err := json.Unmarshal(m.Content, &c); err != nil {
		return c, fmt.Errorf("jupyter: parse execute_reply: %w", err)
	}
	return c, nil
}
