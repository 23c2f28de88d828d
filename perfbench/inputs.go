package main

import (
	"fmt"
	"math/rand"
	"time"

	"sdpfloor"
	"sdpfloor/internal/gsrc"
)

// whitespace is the outline whitespace of every generated design (the
// paper's 15%).
const whitespace = 0.15

// design is one generated input: a netlist and its fixed outline.
type design struct {
	nl      *sdpfloor.Netlist
	outline sdpfloor.Rect
}

// generate builds member k of the named builtin benchmark's family: the
// builtin statistics with generator seed spec.Seed+k (k = 0 is the builtin
// instance itself), at the given outline aspect. The gsrc.Generate call is
// timed into gen.
func generate(name string, k int, aspect float64, gen *time.Duration) (design, error) {
	spec, ok := gsrc.BuiltinSpecs[name]
	if !ok {
		return design{}, fmt.Errorf("no builtin benchmark %q", name)
	}
	spec.Seed += int64(k)
	t0 := time.Now()
	d, err := gsrc.Generate(spec, aspect, whitespace)
	*gen += time.Since(t0)
	if err != nil {
		return design{}, err
	}
	return design{nl: d.Netlist, outline: d.Outline}, nil
}

// n10Family generates the n10-class designs the n10 workloads draw from:
// family members 0..n10Members-1, each at outline aspect 1 and 2.
func n10Family(gen *time.Duration) ([]design, error) {
	var ds []design
	for k := 0; k < n10Members; k++ {
		for _, aspect := range []float64{1, 2} {
			d, err := generate("n10", k, aspect, gen)
			if err != nil {
				return nil, err
			}
			ds = append(ds, d)
		}
	}
	return ds, nil
}

// order returns the order in which a workload visits its n inputs: the
// identity for seed 0, otherwise a permutation drawn from the seed.
func order(n int, seed int64) []int {
	if seed == 0 {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		return p
	}
	return rand.New(rand.NewSource(seed)).Perm(n)
}
