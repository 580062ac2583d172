package main

import "testing"

func TestStrongAttackCommittee(t *testing.T) {
	if err := run([]string{"-kind", "strong", "-n", "48", "-f", "16"}); err != nil {
		t.Fatal(err)
	}
}

func TestStrongAttackDolevStrong(t *testing.T) {
	if err := run([]string{"-kind", "strong", "-protocol", "dolevstrong", "-n", "16", "-f", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestNoSetupAttack(t *testing.T) {
	if err := run([]string{"-kind", "nosetup", "-n", "64"}); err != nil {
		t.Fatal(err)
	}
}

func TestFlipAttackBothModes(t *testing.T) {
	if err := run([]string{"-kind", "flip", "-n", "100", "-f", "34"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-kind", "flip", "-n", "100", "-f", "34", "-erasure"}); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsUnknown(t *testing.T) {
	if err := run([]string{"-kind", "nope"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if err := run([]string{"-kind", "strong", "-protocol", "nope"}); err == nil {
		t.Fatal("unknown victim accepted")
	}
}

// -seed goes through ccba.SeedFromInt, as cmd/ba's does: a negative seed is
// an error, not some other seed.
func TestRejectsNegativeSeed(t *testing.T) {
	if err := run([]string{"-kind", "flip", "-n", "100", "-f", "34", "-seed", "-1"}); err == nil {
		t.Fatal("negative seed accepted")
	}
}
