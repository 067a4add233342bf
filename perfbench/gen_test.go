package main

import "testing"

// TestInputDigestFollowsTheSeed checks the run record's input digest:
// the same seed replays the same inputs, another seed changes them.
func TestInputDigestFollowsTheSeed(t *testing.T) {
	for _, name := range []string{"ingest_wire_durable", "federated_replicated"} {
		digest := func(seed uint64) string {
			w, err := newWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			return w.generate(seed, 1)
		}
		if a, b := digest(1), digest(1); a != b {
			t.Errorf("%s: seed 1 drew different inputs: %s vs %s", name, a, b)
		}
		if a, b := digest(1), digest(2); a == b {
			t.Errorf("%s: seeds 1 and 2 drew the same inputs (%s)", name, a)
		}
	}
}
