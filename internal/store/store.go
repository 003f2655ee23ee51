package store

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = errors.New("store: key not found")

// Store is the pluggable large-object store interface.
type Store interface {
	// Put writes data under key, overwriting any prior value.
	Put(key string, data []byte) error
	// Get returns the data stored under key.
	Get(key string) ([]byte, error)
}

// Mem is an in-memory Store, safe for concurrent use.
type Mem struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: make(map[string][]byte)} }

// Put implements Store.
func (s *Mem) Put(key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.m[key] = cp
	s.mu.Unlock()
	return nil
}

// Get implements Store.
func (s *Mem) Get(key string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Len returns the number of stored keys.
func (s *Mem) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}
