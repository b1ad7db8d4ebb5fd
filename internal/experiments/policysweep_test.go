package experiments

import (
	"context"
	"testing"
	"time"

	"repro/internal/workload"
)

func sweepTrace(t *testing.T) *workload.Population {
	t.Helper()
	pop, err := workload.Generate(workload.Config{
		Seed: 12, NumApps: 50, Duration: 12 * time.Hour,
		MaxDailyRate: 300, MaxEventsPerFunction: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestPolicySweep(t *testing.T) {
	pop := sweepTrace(t)
	fig, err := PolicySweep(context.Background(), pop.Trace, []string{"fixed?ka=30m", "hybrid?range=1h", "nounload"})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "extra-policy-sweep" {
		t.Fatalf("figure ID %q", fig.ID)
	}
	if len(fig.Table) != 4 { // header + 3 policies
		t.Fatalf("table rows = %d", len(fig.Table))
	}
	if len(fig.Series) != 1 || len(fig.Series[0].Points) != 3 {
		t.Fatalf("series = %+v", fig.Series)
	}
}

func TestPolicySweepBadSpec(t *testing.T) {
	pop := sweepTrace(t)
	if _, err := PolicySweep(context.Background(), pop.Trace, []string{"hybrid?cv=notanumber"}); err == nil {
		t.Fatal("bad spec accepted")
	}
}

// TestRunAllCanceled pins that a canceled context stops the harness
// before any figure is produced.
func TestRunAllCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	figs, err := RunAll(ctx, Config{
		Seed: 1, NumApps: 20, Duration: 6 * time.Hour,
		MaxDailyRate: 100, MaxEventsPerFunction: 200,
		SkipPlatform: true,
	}, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if figs != nil {
		t.Fatalf("canceled run returned %d figures", len(figs))
	}
}

// TestRunAllWithPolicySpecs wires the registry path through the
// harness config.
func TestRunAllWithPolicySpecs(t *testing.T) {
	figs, err := RunAll(context.Background(), Config{
		Seed: 2, NumApps: 25, Duration: 6 * time.Hour,
		MaxDailyRate: 100, MaxEventsPerFunction: 200,
		SkipPlatform: true,
		PolicySpecs:  []string{"fixed?ka=45m"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range figs {
		if f.ID == "extra-policy-sweep" {
			found = true
		}
	}
	if !found {
		t.Fatal("policy sweep figure missing")
	}
}
