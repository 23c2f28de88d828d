package main

import (
	"math"
	"sort"
)

// median is the Harrell–Davis estimate of the sample's median (0 for an
// empty sample).
func median(xs []float64) float64 { return hdQuantile(xs, 0.5) }

// hdQuantile is the Harrell–Davis estimator of the q-quantile: a weighted
// mean of all order statistics, the i-th weighted by the Beta((n+1)q,
// (n+1)(1-q)) probability of ((i-1)/n, i/n]. On the few dozen latencies of
// one run it is much steadier than the single middle order statistic,
// which jumps whenever the middle of the sample falls between two inputs
// of different cost.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	est, prev := 0.0, 0.0
	for i := range s {
		cdf := betaCDF(float64(i+1)/float64(n), a, b)
		est += s[i] * (cdf - prev)
		prev = cdf
	}
	return est
}

// betaCDF is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaCDF(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

func betaCF(x, a, b float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return h
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
