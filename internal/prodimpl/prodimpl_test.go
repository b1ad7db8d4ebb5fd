package prodimpl

import (
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/stats"
)

var t0 = time.Date(2026, 6, 1, 12, 0, 0, 0, time.UTC)

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Histogram.NumBins = 0 },
		func(c *Config) { c.RetentionDays = 0 },
		func(c *Config) { c.DayWeightDecay = 0 },
		func(c *Config) { c.DayWeightDecay = 1.5 },
		func(c *Config) { c.PrewarmLead = -time.Second },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestObserveAndWindows(t *testing.T) {
	m := NewManager(DefaultConfig(), NewMemStore())
	for i := 0; i < 50; i++ {
		m.Observe("app", 30*time.Minute, t0)
	}
	pw, ka, at, ok := m.Windows("app", t0)
	if !ok {
		t.Fatal("expected windows")
	}
	if pw != 27*time.Minute {
		t.Fatalf("preWarm = %v, want 27m", pw)
	}
	if ka <= 0 {
		t.Fatalf("keepAlive = %v", ka)
	}
	// Pre-warm event fires 90s before the window elapses (§6).
	want := t0.Add(27*time.Minute - 90*time.Second)
	if !at.Equal(want) {
		t.Fatalf("prewarmAt = %v, want %v", at, want)
	}
}

func TestPrewarmLeadClampsToExecEnd(t *testing.T) {
	m := NewManager(DefaultConfig(), NewMemStore())
	for i := 0; i < 50; i++ {
		m.Observe("app", time.Minute, t0) // head rounds to bin 1
	}
	_, _, at, ok := m.Windows("app", t0)
	if !ok {
		t.Fatal("expected windows")
	}
	if at.Before(t0) {
		t.Fatalf("prewarmAt %v before exec end %v", at, t0)
	}
}

func TestWindowsUnknownApp(t *testing.T) {
	m := NewManager(DefaultConfig(), NewMemStore())
	if _, _, _, ok := m.Windows("ghost", t0); ok {
		t.Fatal("unknown app should have no windows")
	}
}

func TestDailyRotation(t *testing.T) {
	m := NewManager(DefaultConfig(), NewMemStore())
	m.Observe("app", 10*time.Minute, t0)
	m.Observe("app", 10*time.Minute, t0.Add(24*time.Hour))
	m.Observe("app", 10*time.Minute, t0.Add(48*time.Hour))
	if got := m.DayCount("app"); got != 3 {
		t.Fatalf("day count = %d, want 3", got)
	}
}

func TestAggregateWeightsRecentDays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DayWeightDecay = 0.5
	m := NewManager(cfg, NewMemStore())
	// Old day: 100 ITs at 10 min; today: 100 ITs at 60 min.
	old := t0
	today := t0.Add(3 * 24 * time.Hour)
	for i := 0; i < 100; i++ {
		m.Observe("app", 10*time.Minute, old)
		m.Observe("app", 60*time.Minute, today)
	}
	agg := m.Aggregate("app", today)
	if agg == nil {
		t.Fatal("no aggregate")
	}
	// Today's bin keeps full weight (100); the 3-day-old bin decays to
	// 100 * 0.5^3 = 12.5 -> 13.
	if agg.Count(60) != 100 {
		t.Fatalf("today count = %d, want 100", agg.Count(60))
	}
	if c := agg.Count(10); c < 12 || c > 13 {
		t.Fatalf("old count = %d, want ~12-13", c)
	}
}

func TestBackupRestoreRoundTrip(t *testing.T) {
	store := NewMemStore()
	m := NewManager(DefaultConfig(), store)
	for i := 0; i < 40; i++ {
		m.Observe("app", 15*time.Minute, t0)
	}
	m.Observe("app", 5*time.Hour, t0) // one OOB
	if err := m.Backup(); err != nil {
		t.Fatal(err)
	}

	// Fresh manager (simulating a controller restart).
	m2 := NewManager(DefaultConfig(), store)
	if err := m2.Restore("app"); err != nil {
		t.Fatal(err)
	}
	a1 := m.Aggregate("app", t0)
	a2 := m2.Aggregate("app", t0)
	if a2 == nil || a1.Total() != a2.Total() || a1.OutOfBounds() != a2.OutOfBounds() {
		t.Fatalf("restore mismatch: %v vs %v", a1, a2)
	}
	pw1, ka1, _, _ := m.Windows("app", t0)
	pw2, ka2, _, _ := m2.Windows("app", t0)
	if pw1 != pw2 || ka1 != ka2 {
		t.Fatal("windows differ after restore")
	}
}

func TestRestoreKeepsInMemoryData(t *testing.T) {
	store := NewMemStore()
	m := NewManager(DefaultConfig(), store)
	m.Observe("app", 10*time.Minute, t0)
	if err := m.Backup(); err != nil {
		t.Fatal(err)
	}
	// Add more in-memory data for the same day, then restore: the
	// fresher in-memory histogram must win.
	m.Observe("app", 10*time.Minute, t0)
	if err := m.Restore("app"); err != nil {
		t.Fatal(err)
	}
	agg := m.Aggregate("app", t0)
	if agg.Total() != 2 {
		t.Fatalf("total = %d, want 2 (in-memory preserved)", agg.Total())
	}
}

func TestPruneRemovesOldDays(t *testing.T) {
	store := NewMemStore()
	m := NewManager(DefaultConfig(), store)
	old := t0
	now := t0.Add(20 * 24 * time.Hour)
	m.Observe("app", 10*time.Minute, old)
	m.Observe("app", 10*time.Minute, now)
	if err := m.Backup(); err != nil {
		t.Fatal(err)
	}
	if err := m.Prune(now); err != nil {
		t.Fatal(err)
	}
	if got := m.DayCount("app"); got != 1 {
		t.Fatalf("day count after prune = %d, want 1", got)
	}
	days, err := store.Days("app")
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 1 {
		t.Fatalf("store days after prune = %v", days)
	}
}

func TestAppsListing(t *testing.T) {
	m := NewManager(DefaultConfig(), NewMemStore())
	m.Observe("b", time.Minute, t0)
	m.Observe("a", time.Minute, t0)
	apps := m.Apps()
	if len(apps) != 2 || apps[0] != "a" || apps[1] != "b" {
		t.Fatalf("apps = %v", apps)
	}
}

func TestMemStoreMissing(t *testing.T) {
	s := NewMemStore()
	if _, err := s.Load("x", 1); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	if err := s.Delete("x", 1); err != nil {
		t.Fatalf("deleting missing entry: %v", err)
	}
}

func TestFileStore(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("app", 3, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("app", 1, []byte("world")); err != nil {
		t.Fatal(err)
	}
	data, err := s.Load("app", 3)
	if err != nil || string(data) != "hello" {
		t.Fatalf("load = %q, %v", data, err)
	}
	days, err := s.Days("app")
	if err != nil || len(days) != 2 || days[0] != 1 || days[1] != 3 {
		t.Fatalf("days = %v, %v", days, err)
	}
	if err := s.Delete("app", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("app", 99); err != nil {
		t.Fatalf("deleting missing: %v", err)
	}
	days, _ = s.Days("app")
	if len(days) != 1 {
		t.Fatalf("days after delete = %v", days)
	}
	if days2, err := s.Days("ghost"); err != nil || days2 != nil {
		t.Fatalf("ghost days = %v, %v", days2, err)
	}
}

func TestFileStoreBackedManager(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(DefaultConfig(), store)
	for i := 0; i < 30; i++ {
		m.Observe("svc", 20*time.Minute, t0)
	}
	if err := m.Backup(); err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(DefaultConfig(), store)
	if err := m2.Restore("svc"); err != nil {
		t.Fatal(err)
	}
	pw, _, _, ok := m2.Windows("svc", t0)
	if !ok || pw != 18*time.Minute {
		t.Fatalf("restored preWarm = %v ok=%v, want 18m", pw, ok)
	}
}

// BenchmarkProdObserve measures the production manager's per-IT cost
// (in-memory histogram update with daily rotation bookkeeping, §6).
func BenchmarkProdObserve(b *testing.B) {
	m := NewManager(DefaultConfig(), NewMemStore())
	r := stats.NewRNG(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe("app", time.Duration(r.Float64()*float64(time.Hour)), t0)
	}
}

// BenchmarkProdBackup measures the hourly backup of 100 apps.
func BenchmarkProdBackup(b *testing.B) {
	m := NewManager(DefaultConfig(), NewMemStore())
	r := stats.NewRNG(8)
	for a := 0; a < 100; a++ {
		app := string(rune('a'+a/26)) + string(rune('a'+a%26))
		for i := 0; i < 50; i++ {
			m.Observe(app, time.Duration(r.Float64()*float64(time.Hour)), t0)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Backup(); err != nil {
			b.Fatal(err)
		}
	}
}
