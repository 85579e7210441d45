// Deterministic trace sampling: the mechanism that keeps tracing usable
// at the 90M-event datacenter scales without giving up reproducibility.
//
// The sampling decision for a root span (or instant) is a pure function
// of (seed, category, node, per-(category,node) ordinal) hashed with
// FNV-1a — no virtual time, no span IDs, no RNG draw. Virtual time
// shifts with model edits and an RNG draw would perturb the model's
// stream; the chosen key does neither, so a 1-in-N sampled trace is
// byte-identical run to run at the same seed.
//
// Sampling drops whole trees: a sampled-out Begin returns the zero
// SpanRef, and children/annotations of the zero ref are no-ops, so a
// dropped migration span drops its transfer child with it. Counters,
// flow accounting and histograms are never sampled — they stay exact.
package trace

// sampleState is the tracer's sampling configuration plus the
// per-(category,node) ordinal counters the decision hash consumes.
type sampleState struct {
	n    uint64 // keep 1 in n root records; n <= 1 keeps everything
	seed uint64
	ord  map[sampleKey]uint64
	out  uint64 // records dropped by sampling
}

type sampleKey struct {
	cat  string
	node int
}

// SetSampling configures 1-in-n deterministic sampling of root spans
// and instants. n <= 1 disables sampling (everything is recorded). Call
// before the run records anything; the seed makes distinct runs sample
// distinct (but per-run stable) record subsets.
func (t *Tracer) SetSampling(n int, seed uint64) {
	if t == nil {
		return
	}
	if n <= 1 {
		t.sample = nil
		return
	}
	t.sample = &sampleState{n: uint64(n), seed: seed, ord: make(map[sampleKey]uint64)}
}

// SampleN reports the configured sampling rate (1 when sampling is off
// or the tracer is nil).
func (t *Tracer) SampleN() int {
	if t == nil || t.sample == nil {
		return 1
	}
	return int(t.sample.n)
}

// SampledOut reports how many root records sampling dropped.
func (t *Tracer) SampledOut() uint64 {
	if t == nil || t.sample == nil {
		return 0
	}
	return t.sample.out
}

// fnv1a64 constants (the same family the engine digest uses).
const (
	sampleOffset = 14695981039346656037
	samplePrime  = 1099511628211
)

func sampleMixByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= samplePrime
	return h
}

func sampleMix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = sampleMixByte(h, byte(v))
		v >>= 8
	}
	return h
}

// keep decides whether the next (cat, node) root record is sampled in.
// It advances the ordinal either way, so the decision sequence for a
// key is a fixed function of the key's record order alone.
func (s *sampleState) keep(cat string, node int) bool {
	k := sampleKey{cat: cat, node: node}
	ord := s.ord[k]
	s.ord[k] = ord + 1
	h := sampleMix64(sampleOffset, s.seed)
	for i := 0; i < len(cat); i++ {
		h = sampleMixByte(h, cat[i])
	}
	h = sampleMix64(h, uint64(int64(node)))
	h = sampleMix64(h, ord)
	if h%s.n == 0 {
		return true
	}
	s.out++
	return false
}
