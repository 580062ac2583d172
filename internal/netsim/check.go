package netsim

import (
	"errors"
	"fmt"

	"ccba/internal/types"
)

// Violation errors returned by the security-property checkers. Callers
// distinguish the property that failed with errors.Is.
var (
	ErrConsistency = errors.New("consistency violation")
	ErrValidity    = errors.New("validity violation")
	ErrTermination = errors.New("termination violation")
)

// EachForeverHonest calls fn for every forever-honest node in id order,
// stopping early when fn returns false. It is the allocation-free
// counterpart of ForeverHonest(), and what the checkers below range over:
// materialising the index would cost an n-sized slice per property — three
// 8 MB slices per trial at n = 10⁶ — for data each check scans once.
func (r *Result) EachForeverHonest(fn func(id types.NodeID) bool) {
	for i, c := range r.Corrupt {
		if c {
			continue
		}
		if !fn(types.NodeID(i)) {
			return
		}
	}
}

// CheckConsistency verifies the agreement property of Appendix A.2: every
// forever-honest node that decided output the same bit.
func CheckConsistency(res *Result) error {
	decided := types.NoBit
	var first types.NodeID
	for id := range res.EachForeverHonest {
		if !res.Decided[id] {
			continue
		}
		out := res.Outputs[id]
		if decided == types.NoBit {
			decided, first = out, id
			continue
		}
		if out != decided {
			return fmt.Errorf("%w: node %d output %s but node %d output %s",
				ErrConsistency, first, decided, id, out)
		}
	}
	return nil
}

// CheckAgreementValidity verifies the agreement-version validity property:
// if every forever-honest node received the same input bit, every
// forever-honest node output that bit. inputs holds all n input bits.
func CheckAgreementValidity(res *Result, inputs []types.Bit) error {
	common, seen := types.NoBit, false
	for id := range res.EachForeverHonest {
		if !seen {
			common, seen = inputs[id], true
		} else if inputs[id] != common {
			return nil // inputs disagree: validity is vacuous
		}
	}
	for id := range res.EachForeverHonest {
		if !res.Decided[id] {
			return fmt.Errorf("%w: node %d never decided despite unanimous input %s",
				ErrValidity, id, common)
		}
		if res.Outputs[id] != common {
			return fmt.Errorf("%w: unanimous input %s but node %d output %s",
				ErrValidity, common, id, res.Outputs[id])
		}
	}
	return nil
}

// CheckBroadcastValidity verifies the broadcast-version validity property:
// if the designated sender is forever-honest, every forever-honest node
// output the sender's input.
func CheckBroadcastValidity(res *Result, sender types.NodeID, input types.Bit) error {
	if res.Corrupt[sender] {
		return nil // corrupt sender: validity is vacuous
	}
	for id := range res.EachForeverHonest {
		if !res.Decided[id] {
			return fmt.Errorf("%w: node %d never decided despite honest sender input %s",
				ErrValidity, id, input)
		}
		if res.Outputs[id] != input {
			return fmt.Errorf("%w: honest sender input %s but node %d output %s",
				ErrValidity, input, id, res.Outputs[id])
		}
	}
	return nil
}

// CheckTermination verifies T_end-termination: every forever-honest node
// decided (the Runtime already bounds rounds by MaxRounds).
func CheckTermination(res *Result) error {
	for id := range res.EachForeverHonest {
		if !res.Decided[id] {
			return fmt.Errorf("%w: node %d undecided after %d rounds",
				ErrTermination, id, res.Rounds)
		}
	}
	return nil
}
