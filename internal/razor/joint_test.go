package razor

import (
	"context"
	"math"
	"testing"

	"synts/internal/cpu"
	"synts/internal/trace"
	"synts/internal/workload"
)

func jointProfiles(t *testing.T) []*trace.Profile {
	t.Helper()
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 4, 1, 11)
	out := make([]*trace.Profile, 0, 3)
	for _, st := range trace.Stages() {
		profs, err := trace.BuildProfilesScopedCtx(context.Background(), "", streams, st, cpu.DefaultL1(), 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, profs[0][0]) // thread 0, interval 0: same window per stage
	}
	return out
}

func TestJointReplayBounds(t *testing.T) {
	ps := jointProfiles(t)
	for _, r := range []float64{0.64, 0.784, 0.928, 1.0} {
		res, err := JointReplayScoped("", nil, ps, r)
		if err != nil {
			t.Fatal(err)
		}
		joint := res.ErrorRate()
		// Joint rate is at least each stage's marginal and at most their sum.
		var sum, maxMarg float64
		for s := range ps {
			m := float64(res.StageErrors[s]) / float64(res.Instructions)
			sum += m
			if m > maxMarg {
				maxMarg = m
			}
		}
		if joint < maxMarg-1e-12 {
			t.Fatalf("r=%v: joint %v below max marginal %v", r, joint, maxMarg)
		}
		if joint > sum+1e-12 {
			t.Fatalf("r=%v: joint %v above union bound %v", r, joint, sum)
		}
		// At r=1 nothing errs anywhere.
		if r == 1.0 && joint != 0 {
			t.Fatalf("joint err at r=1 is %v", joint)
		}
	}
}

func TestJointVsIndependence(t *testing.T) {
	ps := jointProfiles(t)
	res, err := JointReplayScoped("", nil, ps, 0.64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Skip("no errors at this scale")
	}
	// The independence prediction must be a sane probability near the
	// exact joint rate; per-instruction correlation across stages makes
	// them differ, which is the point of the analysis.
	if res.Independent < 0 || res.Independent > 1 {
		t.Fatalf("independence prediction %v out of range", res.Independent)
	}
	rel := math.Abs(res.Independent-res.ErrorRate()) / res.ErrorRate()
	if rel > 1.0 {
		t.Errorf("independence prediction %v implausibly far from joint %v", res.Independent, res.ErrorRate())
	}
}

func TestJointReplayValidation(t *testing.T) {
	if _, err := JointReplayScoped("", nil, nil, 0.8); err == nil {
		t.Error("empty profile set accepted")
	}
	a := trace.NewProfile(1, make([]float64, 5))
	b := trace.NewProfile(1, make([]float64, 6))
	if _, err := JointReplayScoped("", nil, []*trace.Profile{a, b}, 0.8); err == nil {
		t.Error("mismatched windows accepted")
	}
}
