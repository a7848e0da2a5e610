package main

import (
	"math"
	"math/rand"

	"repro/internal/workloads"
)

// The key-value load is YCSB workload A: half reads, half writes, keys
// drawn from a scrambled zipfian (theta 0.99) over a fixed record
// count. The generator lives here, not in the system, so the system
// sees only the request words the benchmark makes from its seed.

const (
	ycsbRecords   = 1024
	ycsbReadShare = 0.5
	zipfTheta     = 0.99
)

// zipfian draws ranks 0..n-1 by Gray et al.'s method, as YCSB does.
type zipfian struct {
	n                         float64
	alpha, zetan, eta, thresh float64
}

func newZipfian(n int) *zipfian {
	zeta := func(k int) float64 {
		s := 0.0
		for i := 1; i <= k; i++ {
			s += 1 / math.Pow(float64(i), zipfTheta)
		}
		return s
	}
	z := &zipfian{n: float64(n), alpha: 1 / (1 - zipfTheta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-zipfTheta)) / (1 - zeta(2)/z.zetan)
	z.thresh = 1 + math.Pow(0.5, zipfTheta)
	return z
}

func (z *zipfian) next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.thresh:
		return 1
	}
	r := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	return min(r, uint64(z.n)-1)
}

// kvGen makes one caller's deterministic request stream.
type kvGen struct {
	rng  *rand.Rand
	zipf *zipfian
}

func newKVGen(seed int64, caller int) *kvGen {
	return &kvGen{
		rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(caller))),
		zipf: newZipfian(ycsbRecords),
	}
}

// next returns the next request word (see workloads.KVRequestWord).
func (g *kvGen) next() uint64 {
	write := g.rng.Float64() >= ycsbReadShare
	// Scramble the rank so hot keys spread over the key space (YCSB's
	// scrambled zipfian): FNV-1a of the rank, folded into the range.
	h := uint64(14695981039346656037)
	for r := g.zipf.next(g.rng); r > 0; r >>= 8 {
		h = (h ^ (r & 0xff)) * 1099511628211
	}
	key := h % ycsbRecords
	var value uint64
	if write {
		value = uint64(g.rng.Int63n(1 << 31))
	}
	return workloads.KVRequestWord(write, key, value)
}

// wordParts splits a request word back into its protocol fields.
func wordParts(w uint64) (write bool, key, value uint64) {
	return w>>63 != 0, w & 0xFFFFFFFF, (w >> 32) & 0x7FFFFFFF
}
