package machine

import "testing"

func TestTable1Latencies(t *testing.T) {
	cases := []struct {
		cfg    Config
		remote float64
		local  float64
	}{
		{CM5(64), 400, 30},
		{T3D(64), 85, 23},
		{DASH(64), 110, 26},
	}
	for _, tc := range cases {
		if got := tc.cfg.RemoteRoundTrip(); got != tc.remote {
			t.Errorf("%s: remote = %g, want %g", tc.cfg.Name, got, tc.remote)
		}
		if tc.cfg.LocalCost != tc.local {
			t.Errorf("%s: local = %g, want %g", tc.cfg.Name, tc.cfg.LocalCost, tc.local)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := CM5(64).Validate(); err != nil {
		t.Errorf("CM5 should validate: %v", err)
	}
	bad := CM5(0)
	if err := bad.Validate(); err == nil {
		t.Error("zero procs should fail")
	}
	neg := CM5(4)
	neg.Wire = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative cost should fail")
	}
}

func TestIdeal(t *testing.T) {
	c := Ideal(4)
	if c.RemoteRoundTrip() != 0 {
		t.Error("ideal machine should have zero latency")
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestTable1Set(t *testing.T) {
	set := Table1(32)
	if len(set) != 3 {
		t.Fatalf("got %d machines", len(set))
	}
	names := []string{"CM-5", "T3D", "DASH"}
	for i, c := range set {
		if c.Name != names[i] || c.Procs != 32 {
			t.Errorf("machine %d = %s/%d", i, c.Name, c.Procs)
		}
	}
}

func TestRelativeLatencyOrdering(t *testing.T) {
	// The CM-5 has the worst remote/local ratio; that is why the paper's
	// gains are largest there.
	ratio := func(c Config) float64 { return c.RemoteRoundTrip() / c.LocalCost }
	if !(ratio(CM5(1)) > ratio(DASH(1)) && ratio(DASH(1)) > ratio(T3D(1))) {
		t.Errorf("latency ratios out of order: CM5 %.1f DASH %.1f T3D %.1f",
			ratio(CM5(1)), ratio(DASH(1)), ratio(T3D(1)))
	}
}
