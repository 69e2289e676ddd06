package milp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"synts/internal/core"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Problem
	}{
		{"no vars", Problem{}},
		{"row mismatch", Problem{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}}},
		{"bound mismatch", Problem{C: []float64{1}, A: [][]float64{{1}}, B: nil}},
		{"integer mask mismatch", Problem{C: []float64{1}, Integer: []bool{true, false}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.p.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestSolveLPSimple(t *testing.T) {
	// min -x-y s.t. x+y <= 4, x <= 3, y <= 2: optimum at (3,1) or (2,2), obj -4.
	p := &Problem{
		C: []float64{-1, -1},
		A: [][]float64{{1, 1}, {1, 0}, {0, 1}},
		B: []float64{4, 3, 2},
	}
	x, obj, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-(-4)) > 1e-6 {
		t.Fatalf("obj = %v, want -4 (x=%v)", obj, x)
	}
}

func TestSolveLPWithNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -5 (x >= 5): optimum 5. Exercises phase 1.
	p := &Problem{C: []float64{1}, A: [][]float64{{-1}}, B: []float64{-5}}
	x, obj, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-5) > 1e-6 || math.Abs(x[0]-5) > 1e-6 {
		t.Fatalf("x = %v, obj = %v, want 5", x, obj)
	}
}

func TestSolveLPInfeasible(t *testing.T) {
	// x <= 1 and x >= 2.
	p := &Problem{C: []float64{1}, A: [][]float64{{1}, {-1}}, B: []float64{1, -2}}
	if _, _, err := p.SolveLP(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestSolveLPUnbounded(t *testing.T) {
	p := &Problem{C: []float64{-1}, A: [][]float64{{0}}, B: []float64{1}}
	if _, _, err := p.SolveLP(); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("want ErrUnbounded, got %v", err)
	}
}

func TestSolveKnapsack(t *testing.T) {
	// max 10a+6b+4c s.t. a+b+c <= 2 binary -> min negated.
	p := &Problem{
		C:       []float64{-10, -6, -4},
		A:       [][]float64{{1, 1, 1}},
		B:       []float64{2},
		Integer: []bool{true, true, true},
	}
	x, obj, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-(-16)) > 1e-6 {
		t.Fatalf("obj = %v, want -16 (x=%v)", obj, x)
	}
	if x[0] != 1 || x[1] != 1 || x[2] != 0 {
		t.Fatalf("x = %v, want [1 1 0]", x)
	}
}

func TestBranchAndBoundTightensRelaxation(t *testing.T) {
	// Fractional LP optimum: max x+y s.t. 2x+2y <= 3 binary.
	// Relaxation gives 1.5; integer optimum is 1.
	p := &Problem{
		C:       []float64{-1, -1},
		A:       [][]float64{{2, 2}},
		B:       []float64{3},
		Integer: []bool{true, true},
	}
	_, relaxObj, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(relaxObj-(-1.5)) > 1e-6 {
		t.Fatalf("relaxation obj = %v, want -1.5", relaxObj)
	}
	_, obj, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-(-1)) > 1e-6 {
		t.Fatalf("integer obj = %v, want -1", obj)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -x - 10b s.t. x + 4b <= 4, x continuous <= 4, b binary.
	// Best: b=1, x=0? obj -10; or b=0, x=4 -> -4. Want -10... but x can be
	// 0 with b=1 (x + 4 <= 4 -> x <= 0). obj = -10.
	p := &Problem{
		C:       []float64{-1, -10},
		A:       [][]float64{{1, 4}},
		B:       []float64{4},
		Integer: []bool{false, true},
	}
	x, obj, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-(-10)) > 1e-6 {
		t.Fatalf("obj = %v (x=%v), want -10", obj, x)
	}
	if math.Round(x[1]) != 1 {
		t.Fatalf("b = %v, want 1", x[1])
	}
}

func milpTestConfig() *core.Config {
	return &core.Config{
		Voltages: []float64{1.0, 0.8},
		TNom: func(v float64) float64 {
			if v >= 1.0 {
				return 1000
			}
			return 1390
		},
		TSRs:     []float64{0.7, 1.0},
		CPenalty: 5,
	}
}

// The headline cross-check: SynTS-MILP == SynTS-Poly == brute force.
func TestSynTSMILPMatchesPolyAndBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := milpTestConfig()
	for trial := 0; trial < 15; trial++ {
		m := 2 + rng.Intn(2)
		ths := make([]core.Thread, m)
		for i := range ths {
			ths[i] = core.Thread{
				N:       1000 + rng.Float64()*5000,
				CPIBase: 1 + rng.Float64(),
				Err:     core.ConstErr(0.75+rng.Float64()*0.25, rng.Float64()*0.2),
			}
		}
		theta := []float64{0.1, 1, 10}[trial%3]
		_, mPoly := core.SolvePoly(c, ths, theta)
		_, mBrute := core.SolveBrute(c, ths, theta)
		_, mMILP, err := SolveSynTS(c, ths, theta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(mMILP.Cost-mBrute.Cost) > 1e-6*mBrute.Cost {
			t.Fatalf("trial %d: MILP cost %v != brute %v", trial, mMILP.Cost, mBrute.Cost)
		}
		if math.Abs(mPoly.Cost-mBrute.Cost) > 1e-6*mBrute.Cost {
			t.Fatalf("trial %d: Poly cost %v != brute %v", trial, mPoly.Cost, mBrute.Cost)
		}
	}
}

func TestSynTSMILPFourThreadsFullPlatform(t *testing.T) {
	if testing.Short() {
		t.Skip("full platform MILP is slower")
	}
	c := &core.Config{
		Voltages: []float64{1.0, 0.92, 0.86, 0.8},
		TNom: func(v float64) float64 {
			table := map[float64]float64{1.0: 1000, 0.92: 1130, 0.86: 1270, 0.8: 1390}
			return table[v]
		},
		TSRs:     []float64{0.64, 0.76, 0.88, 1.0},
		CPenalty: 5,
	}
	rng := rand.New(rand.NewSource(13))
	ths := make([]core.Thread, 4)
	for i := range ths {
		ths[i] = core.Thread{
			N:       5000 + rng.Float64()*5000,
			CPIBase: 1 + rng.Float64(),
			Err:     core.ConstErr(0.7+rng.Float64()*0.3, rng.Float64()*0.1),
		}
	}
	_, mPoly := core.SolvePoly(c, ths, 1)
	_, mMILP, err := SolveSynTS(c, ths, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mMILP.Cost-mPoly.Cost) > 1e-6*mPoly.Cost {
		t.Fatalf("MILP cost %v != Poly %v", mMILP.Cost, mPoly.Cost)
	}
}

func TestBuildSynTSStructure(t *testing.T) {
	c := milpTestConfig()
	ths := []core.Thread{
		{N: 1000, CPIBase: 1, Err: core.ZeroErr},
		{N: 2000, CPIBase: 1, Err: core.ZeroErr},
	}
	p := BuildSynTS(c, ths, 2.5)
	nx := 2 * 2 * 2
	if len(p.C) != nx+1 {
		t.Fatalf("vars = %d, want %d", len(p.C), nx+1)
	}
	if p.C[nx] != 2.5 {
		t.Fatalf("theta coefficient = %v", p.C[nx])
	}
	if len(p.A) != 2*3 {
		t.Fatalf("constraints = %d, want 6", len(p.A))
	}
	for j := 0; j < nx; j++ {
		if !p.Integer[j] {
			t.Fatalf("x var %d not integer", j)
		}
	}
	if p.Integer[nx] {
		t.Fatal("t_exec must be continuous")
	}
}
