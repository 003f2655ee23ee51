package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// traceDigest is an FNV-1a hash over every field of every session and task,
// in trace order: any draw that moves, any reordering, any changed ID moves
// it.
func traceDigest(tr *Trace) uint64 {
	h := fnv.New64a()
	str := func(s string) {
		_ = binary.Write(h, binary.LittleEndian, int64(len(s)))
		h.Write([]byte(s))
	}
	num := func(vs ...int64) { _ = binary.Write(h, binary.LittleEndian, vs) }
	for _, s := range tr.Sessions {
		str(s.ID)
		str(s.Cohort)
		str(string(s.SLO))
		num(s.Start.UnixNano(), s.End.UnixNano(),
			s.Request.Millicpus, s.Request.MemoryMB, int64(s.Request.GPUs), int64(math.Float64bits(s.Request.VRAMGB)),
			int64(len(s.Tasks)))
		for _, t := range s.Tasks {
			num(t.Submit.UnixNano(), int64(t.Duration), int64(t.GPUs))
		}
	}
	return h.Sum64()
}

// TestTraceDigests pins what Generate emits, independently of how it is
// written: session count, task count and a digest over every field of every
// session and task for the paper's four trace configs and the three built-in
// scenarios, seed 42. The golden file was written by the Generate that had a
// thinning loop of its own, before it became a collector of the k = 1
// StreamGen; with both behind one loop this file, not a comparison of the
// two, is what says the workloads did not move. The file is seven lines: a
// deliberate workload change, recorded in CHANGES.md, pastes the lines the
// failure prints.
func TestTraceDigests(t *testing.T) {
	const seed = 42
	summer := AdobeSummerConfig(seed)
	summer.Duration = 10 * 24 * time.Hour
	cfgs := []GenConfig{AdobeExcerptConfig(seed), summer, PhillyConfig(seed), AlibabaConfig(seed)}
	for _, spec := range BuiltinScenarios() {
		cfg, err := spec.Config(seed)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		cfgs = append(cfgs, cfg)
	}

	var b strings.Builder
	for _, cfg := range cfgs {
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		fmt.Fprintf(&b, "%s window=%s sessions=%d tasks=%d fnv1a=%016x\n",
			cfg.Name, cfg.Duration, len(tr.Sessions), tr.NumTasks(), traceDigest(tr))
	}

	const golden = "testdata/trace_digests.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("generated workloads moved against %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
