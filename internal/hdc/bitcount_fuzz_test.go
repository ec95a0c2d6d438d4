package hdc

import (
	"testing"
)

// FuzzBitCounter is the differential fuzzer behind the BitCounter
// correctness audit: a byte stream drives random interleavings of every
// mutating and observing operation, and after each observation the
// counter must agree with a naive per-bit reference. The whole op stream
// replays once per supported kernel tier, so on vector-capable machines
// the fuzzer doubles as the per-tier differential oracle (the naive
// reference is tier-independent). Run with
// `go test -fuzz FuzzBitCounter ./internal/hdc`; the seed corpus keeps a
// representative slice running under plain `go test`.
func FuzzBitCounter(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint64(2), []byte{2, 2, 2, 6, 4, 7, 5, 2, 6})
	f.Add(uint64(3), []byte{4, 4, 4, 6, 1, 7})
	f.Add(uint64(42), []byte{3, 2, 1, 0, 7, 6, 5, 4, 3, 2, 1, 0, 7})
	prev := ActiveKernel()
	f.Cleanup(func() { SetKernel(prev) })
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for _, tier := range SupportedKernels() {
			if err := SetKernel(tier); err != nil {
				t.Fatalf("SetKernel(%s): %v", tier, err)
			}
			fuzzBitCounterOps(t, seed, ops)
		}
	})
}

func fuzzBitCounterOps(t *testing.T, seed uint64, ops []byte) {
	{
		rng := NewRNG(seed)
		d := 1 + rng.Intn(200)
		c := NewBitCounter(d)
		naive := make([]int64, d)
		naiveN := 0
		addNaive := func(bit func(i int) int, weight int) {
			for i := 0; i < d; i++ {
				naive[i] += int64(bit(i)) * int64(weight)
			}
			naiveN += weight
		}
		xorBit := func(a, b *Binary, invert bool) func(int) int {
			return func(i int) int {
				v := a.Bit(i) ^ b.Bit(i)
				if invert {
					v = 1 - v
				}
				return v
			}
		}
		for _, op := range ops {
			switch op % 7 {
			case 0:
				v := RandomBinary(d, rng)
				c.Add(v)
				addNaive(v.Bit, 1)
			case 1:
				a, b := RandomBinary(d, rng), RandomBinary(d, rng)
				inv := rng.Intn(2) == 0
				c.AddXor(a, b, inv)
				addNaive(xorBit(a, b, inv), 1)
			case 2:
				pairs := make([]XorPair, rng.Intn(24))
				for i := range pairs {
					pairs[i] = XorPair{A: RandomBinary(d, rng), B: RandomBinary(d, rng), Invert: rng.Intn(2) == 0}
				}
				c.AddXorPairs(pairs)
				for _, p := range pairs {
					addNaive(xorBit(p.A, p.B, p.Invert), 1)
				}
			case 3:
				a, b := RandomBinary(d, rng), RandomBinary(d, rng)
				inv := rng.Intn(2) == 0
				w := rng.Intn(100)
				c.AddXorWeighted(a, b, inv, w)
				addNaive(xorBit(a, b, inv), w)
			case 4:
				c.Reset()
				for i := range naive {
					naive[i] = 0
				}
				naiveN = 0
			case 5:
				got := c.CountsInto(make([]int32, d))
				for i := range naive {
					if int64(got[i]) != naive[i] {
						t.Fatalf("CountsInto[%d] = %d, want %d", i, got[i], naive[i])
					}
				}
			case 6:
				tie := RandomBinary(d, rng)
				sign := c.SignBinary(tie)
				for i := 0; i < d; i++ {
					twice := 2 * naive[i]
					want := 0
					switch {
					case twice > int64(naiveN):
						want = 1
					case twice == int64(naiveN):
						want = tie.Bit(i)
					}
					if sign.Bit(i) != want {
						t.Fatalf("SignBinary bit %d = %d, want %d (cnt=%d, n=%d)",
							i, sign.Bit(i), want, naive[i], naiveN)
					}
				}
			}
		}
		if c.Count() != naiveN {
			t.Fatalf("count %d, want %d", c.Count(), naiveN)
		}
		got := c.CountsInto(make([]int32, d))
		for i := range naive {
			if int64(got[i]) != naive[i] {
				t.Fatalf("final component %d = %d, want %d", i, got[i], naive[i])
			}
		}
	}
}
