package store

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"notebookos/internal/metrics"
)

func TestMemBasics(t *testing.T) {
	s := NewMem()
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a")
	if err != nil || string(got) != "1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) err = %v", err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestMemIsolation(t *testing.T) {
	s := NewMem()
	data := []byte("hello")
	s.Put("k", data)
	data[0] = 'X' // caller mutation must not leak in
	got, _ := s.Get("k")
	if string(got) != "hello" {
		t.Fatalf("stored value mutated: %q", got)
	}
	got[0] = 'Y' // returned copy mutation must not leak in
	again, _ := s.Get("k")
	if string(again) != "hello" {
		t.Fatalf("second read mutated: %q", again)
	}
}

func TestMemList(t *testing.T) {
	s := NewMem()
	for _, k := range []string{"m/a", "m/b", "d/x"} {
		s.Put(k, []byte("v"))
	}
	keys, err := s.List("m/")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"m/a", "m/b"}) {
		t.Fatalf("List = %v", keys)
	}
	if s.Len() != 3 || s.Bytes() != 3 {
		t.Fatalf("Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
}

// Property: the store behaves like a map for any operation sequence.
func TestMemMapEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewMem()
		shadow := map[string]string{}
		keys := []string{"a", "b", "c", "d"}
		for i := 0; i < 300; i++ {
			k := keys[r.Intn(len(keys))]
			switch r.Intn(3) {
			case 0:
				v := fmt.Sprintf("v%d", r.Intn(1000))
				s.Put(k, []byte(v))
				shadow[k] = v
			case 1:
				got, err := s.Get(k)
				want, ok := shadow[k]
				if ok != (err == nil) {
					return false
				}
				if ok && string(got) != want {
					return false
				}
			case 2:
				err := s.Delete(k)
				_, ok := shadow[k]
				if ok != (err == nil) {
					return false
				}
				delete(shadow, k)
			}
		}
		return s.Len() == len(shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLatencyPresetsMatchFig11(t *testing.T) {
	// Checkpointing the paper's large models must land inside the Fig. 11
	// envelope: 99% of reads < ~3.95s, writes < ~7.07s.
	r := rand.New(rand.NewSource(7))
	m := S3Model()
	writes := metrics.NewSample()
	reads := metrics.NewSample()
	for i := 0; i < 2000; i++ {
		size := int64(45+r.Intn(510)) << 20 // 45MB (ResNet-18) .. ~550MB (GPT-2)
		writes.Add(m.PutLatency(size, r).Seconds())
		reads.Add(m.GetLatency(size, r).Seconds())
	}
	if p99 := writes.Percentile(99); p99 > 8.0 || p99 < 3.0 {
		t.Errorf("write p99 = %.2fs, want ~7.07s", p99)
	}
	if p99 := reads.Percentile(99); p99 > 4.6 || p99 < 1.8 {
		t.Errorf("read p99 = %.2fs, want ~3.95s", p99)
	}
}
