package main

import (
	"math"
	"testing"
)

func TestQuartilesHandComputed(t *testing.T) {
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	s := NewSample([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	q := s.Quartiles()
	want := [3]float64{2.75, 5.5, 8.25}
	wantBeyond := [3]int{8, 5, 2}
	for i := range q {
		if q[i].Value != want[i] || q[i].N != 10 || q[i].Beyond != wantBeyond[i] {
			t.Errorf("quartile %d = %+v, want value %v, n 10, beyond %d", i+1, q[i], want[i], wantBeyond[i])
		}
	}
}

func TestQuartilesOddCount(t *testing.T) {
	// Python: statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	q := NewSample([]float64{16, 1, 8, 2, 4}).Quartiles()
	want := [3]float64{1.5, 4, 12}
	for i := range q {
		if q[i].Value != want[i] {
			t.Errorf("quartile %d = %v, want %v", i+1, q[i].Value, want[i])
		}
	}
	if m := NewSample([]float64{16, 1, 8, 2, 4}).Median(); m.Value != 4 || m.Beyond != 2 {
		t.Errorf("median = %+v, want 4 with 2 beyond", m)
	}
}

func TestQuartilesTiny(t *testing.T) {
	if q := NewSample([]float64{7}).Quartiles(); q[0].Value != 7 || q[2].Value != 7 || q[1].Beyond != 0 {
		t.Errorf("single-sample quartiles = %+v", q)
	}
	// Python: statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]; the
	// exclusive method extrapolates past the ends of tiny samples.
	q := NewSample([]float64{3, 1}).Quartiles()
	if q[0].Value != 0.5 || q[1].Value != 2 || q[2].Value != 3.5 {
		t.Errorf("two-sample quartiles = %v %v %v", q[0].Value, q[1].Value, q[2].Value)
	}
	if q := NewSample(nil).Quartiles(); !math.IsNaN(q[1].Value) || q[1].Resolved() {
		t.Errorf("empty quartiles = %+v", q)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 … 1
	}
	s := NewSample(xs)
	// rank ⌈0.99·1000⌉ = 990 → value 990, ten samples (991…1000) beyond.
	p99 := s.Percentile(99)
	if p99.Value != 990 || p99.N != 1000 || p99.Beyond != 10 || !p99.Resolved() {
		t.Errorf("p99 = %+v, want 990 with 10 beyond, resolved", p99)
	}
	// rank ⌈0.999·1000⌉ = 999 → one sample beyond: unresolved.
	p999 := s.Percentile(99.9)
	if p999.Value != 999 || p999.Beyond != 1 || p999.Resolved() {
		t.Errorf("p99.9 = %+v, want 999 with 1 beyond, unresolved", p999)
	}
	if got := p999.String(); got != "unresolved (n=1000, 1 beyond)" {
		t.Errorf("p99.9 string = %q", got)
	}
	// rank ⌈0.5·1000⌉ = 500.
	if p50 := s.Percentile(50); p50.Value != 500 || p50.Beyond != 500 {
		t.Errorf("p50 = %+v", p50)
	}
	// p100 is the maximum, nothing beyond.
	if pmax := s.Percentile(100); pmax.Value != 1000 || pmax.Beyond != 0 {
		t.Errorf("p100 = %+v", pmax)
	}
}

func TestPercentileTiesAndSmallSamples(t *testing.T) {
	// Ties at the percentile are not "beyond" it.
	s := NewSample([]float64{1, 2, 2, 2, 3})
	if p := s.Percentile(60); p.Value != 2 || p.Beyond != 1 {
		t.Errorf("p60 = %+v, want 2 with 1 beyond", p)
	}
	// rank ⌈0.99·5⌉ = 5: the maximum.
	if p := s.Percentile(99); p.Value != 3 || p.Resolved() {
		t.Errorf("p99 of 5 = %+v", p)
	}
	if p := NewSample(nil).Percentile(50); !math.IsNaN(p.Value) || p.Resolved() {
		t.Errorf("empty p50 = %+v", p)
	}
}

func TestMean(t *testing.T) {
	if m := NewSample([]float64{1, 2, 3, 6}).Mean(); m != 3 {
		t.Errorf("mean = %v, want 3", m)
	}
	if NewSample(nil).Mean() != 0 {
		t.Error("empty mean should be 0")
	}
}
