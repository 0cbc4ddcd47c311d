// Package smt is what stands where the paper's Boogie/Z3 verifier stood,
// and it is not a theorem prover: it decides nothing symbolically. It
// holds a deterministic battery of input sample vectors (this file), a
// compiler from strands to flat register code (compile.go) and a batched
// kernel that evaluates that code over the battery and folds each
// variable's value vector into a 64-bit fingerprint (kernel.go). Package
// vcp calls two variables equivalent when their fingerprints are equal —
// equivalence by sampled input/output behaviour. Variables that differ on
// some battery vector are told apart unless the fold collides; variables
// that differ only off the battery are not. How often either happens on
// real strands is not measured (DESIGN.md §6).
package smt

import "repro/internal/ivl"

// specials are adversarial input values: identities, annihilators, sign
// and width boundaries, and values sitting just below the sign boundary
// so that small added constants cross it. They catch disagreements that
// uniform random 64-bit sampling essentially never hits (e.g. behaviour
// at 0, or carries into the sign bit).
var specials = [...]uint64{
	0, 1, ^uint64(0), 2, 3, 8, 16, 0x7F, 0x80, 0xFF, 0x100,
	0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF, 1 << 32,
	(uint64(1) << 63) - 8, (uint64(1) << 63) - 1, uint64(1) << 63,
	(uint64(1) << 63) + 8, ^uint64(0) - 15, 0xAAAA_AAAA_AAAA_AAAA, 42,
}

const (
	// Every special value gets one sample where all slots share it, so a
	// matched input pair always sees every boundary value.
	allSameSpecials = len(specials)
	rotatedSpecials = 6
	randomSamples   = 12
	sampleSeed      = 0x5e_ed_00_01
)

// DefaultSamples is the number of evaluation vectors used to decide
// variable equivalence: one all-slots-equal sample per special value,
// several staggered-special samples, and independent pseudo-random
// 64-bit vectors.
const DefaultSamples = allSameSpecials + rotatedSpecials + randomSamples

// SlotValue returns the deterministic input value for the given sample
// index and input slot. Two strands whose inputs are matched to the same
// slot see identical values in every sample — this is all a
// correspondence γ does to equate a query input with a target input (the
// paper states it as an assume; here there is no statement for it).
func SlotValue(sample, slot int, typ ivl.Type) ivl.Value {
	if typ == ivl.Mem {
		return ivl.MemValue(ivl.NewMem(SlotMemSeed(sample, slot)))
	}
	return ivl.IntValue(SlotBits(sample, slot))
}

// SlotBits is the integer half of SlotValue: the bv64 input value for the
// given sample and slot. The batched kernel fills input lanes from it
// directly, without boxing into ivl.Value.
func SlotBits(sample, slot int) uint64 {
	switch {
	case sample < allSameSpecials:
		// Every slot takes the same special value.
		return specials[sample%len(specials)]
	case sample < allSameSpecials+rotatedSpecials:
		j := sample - allSameSpecials
		return specials[(j*5+slot*7+1)%len(specials)]
	default:
		return mix64(sampleSeed ^ mix64(uint64(sample)) ^ mix64(uint64(slot)*0xABCD))
	}
}

// FillSlotBits fills lane[s] = SlotBits(s, slot) for s in [0, len(lane)),
// with the sample-regime dispatch hoisted out of the per-lane loop: the
// all-same prefix is a bulk copy, and the random tail hoists the
// slot-dependent mix term. This is the kernel's input-refill primitive —
// per γ-batch row it runs once per rebound input, so the k-length loop
// body must stay branch-free.
func FillSlotBits(lane []uint64, slot int) {
	n := copy(lane, specials[:])
	for s := n; s < len(lane) && s < allSameSpecials+rotatedSpecials; s++ {
		j := s - allSameSpecials
		lane[s] = specials[(j*5+slot*7+1)%len(specials)]
	}
	slotMix := mix64(uint64(slot) * 0xABCD)
	for s := allSameSpecials + rotatedSpecials; s < len(lane); s++ {
		lane[s] = mix64(sampleSeed ^ mix64(uint64(s)) ^ slotMix)
	}
}

// SlotMemSeed is the memory half of SlotValue: the deterministic
// background seed per (sample, slot).
func SlotMemSeed(sample, slot int) uint64 {
	return mix64(sampleSeed ^ uint64(sample)*0x9E37_79B9 ^ uint64(slot)<<32)
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// VectorHashes evaluates a straight-line SSA statement list under k
// sample environments (inputVals supplies each input's value per sample)
// and returns, per defined variable, a fingerprint of its value vector.
// Equal fingerprints mean the variables agreed on every sample.
func VectorHashes(stmts []ivl.Stmt, inputs []ivl.Var,
	inputVals func(sample int, v ivl.Var) ivl.Value, k int) (map[string]uint64, error) {

	fp := make(map[string]uint64, len(stmts))
	for s := 0; s < k; s++ {
		env := make(ivl.Env, len(inputs)+len(stmts))
		for _, in := range inputs {
			env[in.Name] = inputVals(s, in)
		}
		for _, st := range stmts {
			v, err := ivl.Eval(st.Rhs, env)
			if err != nil {
				return nil, err
			}
			env[st.Dst.Name] = v
			h := v.Hash()
			if v.M != nil {
				// Separate the hash domains of memory and integer values
				// so a memory never spuriously matches an integer.
				h = mix64(h ^ 0xDEAD_BEEF_CAFE_F00D)
			}
			fp[st.Dst.Name] = mix64(fp[st.Dst.Name]*0x100_0000_01b3 ^ h)
		}
	}
	return fp, nil
}
