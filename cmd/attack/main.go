// Command attack mounts the paper's lower-bound adversaries interactively.
// Victim protocols are constructed through the ccba scenario/builder
// registries; the flip attack resolves the registered "flip" adversary.
//
//	attack -kind strong -n 64 -f 20        # Theorem 1: Dolev–Reischuk A/A′
//	attack -kind strong -protocol dolevstrong -n 24 -f 8
//	attack -kind nosetup -n 256            # Theorem 3: Q—1—Q′ split world
//	attack -kind flip -n 150               # §3.3 Remark: quorum flip
package main

import (
	"flag"
	"fmt"
	"os"

	"ccba"
	"ccba/internal/chenmicali"
	"ccba/internal/lowerbound/nosetup"
	"ccba/internal/lowerbound/strongadaptive"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "attack:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ContinueOnError)
	var (
		kind     = fs.String("kind", "strong", "attack: strong (Thm 1), nosetup (Thm 3), flip (§3.3 Remark)")
		protocol = fs.String("protocol", "committee", "victim for -kind strong: committee or dolevstrong")
		n        = fs.Int("n", 64, "number of nodes")
		f        = fs.Int("f", 20, "corruption budget")
		c        = fs.Int("committee", 6, "committee size (committee protocol)")
		seed     = fs.Int64("seed", 1, "random seed")
		erasure  = fs.Bool("erasure", false, "memory-erasure model (flip attack)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	seedBytes, err := ccba.SeedFromInt(*seed)
	if err != nil {
		return err
	}

	switch *kind {
	case "strong":
		return strongAttack(*protocol, *n, *f, *c, seedBytes)
	case "nosetup":
		return nosetupAttack(*n, *c, seedBytes)
	case "flip":
		return flipAttack(*n, *f, *erasure, seedBytes)
	default:
		return fmt.Errorf("unknown attack kind %q", *kind)
	}
}

func strongAttack(protocol string, n, f, c int, seed [32]byte) error {
	var victim ccba.Config
	rounds := 10
	switch protocol {
	case "committee":
		victim = ccba.Config{Protocol: ccba.CommitteeEcho, N: n, F: f, CommitteeSize: c, Seed: seed}
	case "dolevstrong":
		victim = ccba.Config{Protocol: ccba.DolevStrong, N: n, F: f, Seed: seed}
		rounds = f + 4
	default:
		return fmt.Errorf("unknown victim %q", protocol)
	}
	out, err := strongadaptive.Run(strongadaptive.Config{
		N: n, F: f, Sender: 0, MaxRounds: rounds, Seed: seed, NewNodes: ccba.VictimFactory(victim),
	})
	if err != nil {
		return err
	}
	fmt.Printf("Theorem 1 attack — strongly adaptive Dolev–Reischuk A/A′ vs %s (n=%d, f=%d)\n", protocol, n, f)
	fmt.Printf("  silent output β:          %v (sender broadcasts %v)\n", out.SilentOutput, out.SilentOutput.Flip())
	fmt.Printf("  honest messages under A:  %d   [(f/4)² reference bound: %d]\n",
		out.HonestMessages, (f/4)*(f/4))
	fmt.Printf("  messages addressed to V:  %d\n", out.MessagesToV)
	fmt.Printf("  validity violated by A:   %v (A is omission-only; expected false)\n", out.ValidityViolatedA)
	fmt.Printf("  isolated node p:          %d, |S(p)| = %d, received %d messages\n",
		out.P, out.SendersToP, out.ReceivedByP)
	fmt.Printf("  corruptions used by A′:   %d / %d (budget exhausted: %v)\n",
		out.CorruptionsAPrime, f, out.BudgetExhausted)
	fmt.Printf("  p output:                 %v\n", out.POutput)
	fmt.Printf("  CONSISTENCY VIOLATED:     %v\n", out.ConsistencyViolatedAPrime)
	return nil
}

func nosetupAttack(n, c int, seed [32]byte) error {
	// Both worlds share the CRS and differ only in the sender's input; each
	// world's node set comes out of the builder registry.
	newNode, err := ccba.SplitWorlds(ccba.Config{
		Protocol: ccba.CommitteeEcho, N: n, F: 0, CommitteeSize: c, Seed: seed,
	})
	if err != nil {
		return err
	}
	out, err := nosetup.Run(nosetup.Config{N: n, MaxRounds: 10, NewNode: newNode})
	if err != nil {
		return err
	}
	fmt.Printf("Theorem 3 attack — split-world Q—1—Q′ without setup (n=%d per world)\n", n)
	fmt.Printf("  Q unanimous on 0:          %v\n", out.QUnanimous0)
	fmt.Printf("  Q′ unanimous on 1:         %v\n", out.QPrimeUnanimous1)
	fmt.Printf("  shared node output:        %v\n", out.SharedOutput)
	fmt.Printf("  multicast complexity C:    %d multicasts, %d bytes\n",
		out.MulticastsPerWorld, out.MulticastBytesPerWorld)
	fmt.Printf("  corruptions needed:        %d (≤ C: %v)\n",
		out.SpeakersQPrime, out.SpeakersQPrime <= out.MulticastsPerWorld)
	fmt.Printf("  CONSISTENCY VIOLATED vs:   %s\n", out.ContradictionSide)
	return nil
}

func flipAttack(n, f int, erasure bool, seed [32]byte) error {
	const epochs = 8
	cfg := ccba.Config{
		Protocol: ccba.ChenMicali, N: n, F: f, Lambda: 40, Epochs: epochs,
		Erasure: erasure, Seed: seed, InputPattern: "unanimous-1",
	}
	adv, err := ccba.NewAdversary("flip", cfg, 0)
	if err != nil {
		return err
	}
	attack := adv.(*chenmicali.FlipAttack)
	cfg.Adversary = attack
	rep, err := ccba.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("§3.3 Remark attack — quorum flip vs bit-free eligibility (n=%d, erasure=%v)\n", n, erasure)
	fmt.Printf("  forged ACKs injected:   %d\n", attack.Forged)
	fmt.Printf("  forgeries blocked:      %d (by key erasure)\n", attack.SignFailures)
	fmt.Printf("  consistency:            %v\n", errString(rep.Consistency))
	fmt.Printf("  validity:               %v\n", errString(rep.Validity))
	return nil
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return "VIOLATED — " + err.Error()
}
