package raft

import "encoding/json"

// encodeConfChange serializes a membership change for a log entry.
func encodeConfChange(cc ConfChange) ([]byte, error) {
	return json.Marshal(cc)
}

// decodeConfChange parses a membership change from a log entry.
func decodeConfChange(data []byte) (ConfChange, error) {
	var cc ConfChange
	err := json.Unmarshal(data, &cc)
	return cc, err
}
