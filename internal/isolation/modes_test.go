package isolation

import "testing"

// strategyMode names the mode a strategy implements, from its concrete type.
func strategyMode(s Strategy) Mode {
	switch s := s.(type) {
	case *baseStrategy:
		return ModeBase
	case *managedStrategy:
		return s.mode
	case *forkStrategy:
		return ModeFork
	}
	return ""
}

func TestModeAndSkipFlags(t *testing.T) {
	k, p := warmProcess(t, 1)
	want := map[Mode]bool{ // mode -> CanSkipCleanup
		ModeBase:  true,
		ModeGH:    true,
		ModeGHNop: true,
		ModeFork:  false,
		ModeFaasm: true,
	}
	for mode, canSkip := range want {
		s, err := New(mode, k, p)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := strategyMode(s); got != mode {
			t.Fatalf("New(%v) built a %v strategy", mode, got)
		}
		if s.CanSkipCleanup() != canSkip {
			t.Fatalf("%v CanSkipCleanup = %v, want %v", mode, s.CanSkipCleanup(), canSkip)
		}
	}
}

// TestGroundhogManagerAccessor: exactly the snapshotting modes run on a manager.
func TestGroundhogManagerAccessor(t *testing.T) {
	k, p := warmProcess(t, 1)
	for _, mode := range Modes {
		s, err := New(mode, k, p)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got, want := s.Manager() != nil, mode.managed(); got != want {
			t.Fatalf("%v: has manager = %v, want %v", mode, got, want)
		}
	}
}

func TestForkEndWithoutBegin(t *testing.T) {
	s := initStrategy(t, ModeFork, 1)
	// Consume the pending request from initStrategy? initStrategy only
	// inits. EndRequest without BeginRequest must fail.
	if _, err := s.EndRequest(); err == nil {
		t.Fatal("fork EndRequest without BeginRequest succeeded")
	}
}

func TestBaseBeginEndAreFree(t *testing.T) {
	s := initStrategy(t, ModeBase, 1)
	p, err := s.BeginRequest(nil)
	if err != nil || p == nil {
		t.Fatalf("BeginRequest: %v", err)
	}
	res, err := s.EndRequest()
	if err != nil || res.Restored || res.Duration != 0 {
		t.Fatalf("EndRequest: %+v, %v", res, err)
	}
}
