package store

import (
	"math/rand"
	"time"
)

// LatencyModel describes a backend's transfer-time behaviour: a fixed
// per-operation base cost plus a throughput term, with multiplicative
// jitter. The presets below are calibrated so that checkpointing the
// paper's models (45 MB ResNet-18 up to ~550 MB GPT-2) reproduces the
// Fig. 11 distribution: 99 % of reads within ~3.95 s and writes within
// ~7.07 s.
type LatencyModel struct {
	Name       string
	PutBase    time.Duration
	PutPerMB   time.Duration
	GetBase    time.Duration
	GetPerMB   time.Duration
	DeleteBase time.Duration
	// Jitter is the +/- fraction of uniform noise applied to each latency.
	Jitter float64
}

// S3Model models AWS S3 (the paper's recommended backend).
func S3Model() LatencyModel {
	return LatencyModel{
		Name:    "s3",
		PutBase: 45 * time.Millisecond, PutPerMB: 11 * time.Millisecond,
		GetBase: 30 * time.Millisecond, GetPerMB: 6500 * time.Microsecond,
		DeleteBase: 25 * time.Millisecond,
		Jitter:     0.25,
	}
}

// RedisModel models a Redis deployment on the cluster network.
func RedisModel() LatencyModel {
	return LatencyModel{
		Name:    "redis",
		PutBase: 1 * time.Millisecond, PutPerMB: 9 * time.Millisecond,
		GetBase: 800 * time.Microsecond, GetPerMB: 5 * time.Millisecond,
		DeleteBase: 500 * time.Microsecond,
		Jitter:     0.15,
	}
}

// HDFSModel models an HDFS deployment.
func HDFSModel() LatencyModel {
	return LatencyModel{
		Name:    "hdfs",
		PutBase: 20 * time.Millisecond, PutPerMB: 14 * time.Millisecond,
		GetBase: 12 * time.Millisecond, GetPerMB: 8 * time.Millisecond,
		DeleteBase: 8 * time.Millisecond,
		Jitter:     0.3,
	}
}

// PutLatency returns a sampled write latency for size bytes.
func (m LatencyModel) PutLatency(size int64, r *rand.Rand) time.Duration {
	return m.jittered(m.PutBase+time.Duration(float64(m.PutPerMB)*float64(size)/(1<<20)), r)
}

// GetLatency returns a sampled read latency for size bytes.
func (m LatencyModel) GetLatency(size int64, r *rand.Rand) time.Duration {
	return m.jittered(m.GetBase+time.Duration(float64(m.GetPerMB)*float64(size)/(1<<20)), r)
}

func (m LatencyModel) jittered(d time.Duration, r *rand.Rand) time.Duration {
	if m.Jitter <= 0 || r == nil {
		return d
	}
	f := 1 + m.Jitter*(2*r.Float64()-1)
	return time.Duration(float64(d) * f)
}
