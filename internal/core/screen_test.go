package core

import (
	"fmt"
	"testing"

	"ccba/internal/netsim"
	"ccba/internal/types"
)

// forgeAdversary statically corrupts three voters and a leader, and in round
// 0 injects one iteration-iter vote for One from each voter: a forged voter
// ticket, a genuine voter ticket with a forged leader ticket, and a genuine
// vote (the control). It sends them as multicasts — shared deliveries the
// engine screens — or, with unicast set, as one copy per honest node, which
// each recipient checks itself.
type forgeAdversary struct {
	cfg                      Config
	iter                     uint32
	leader                   types.NodeID
	leaderElig               []byte
	forgedElig, forgedLeader types.NodeID
	genuine                  types.NodeID
	unicast                  bool
	corrupt                  map[types.NodeID]bool
}

func (a *forgeAdversary) Power() netsim.Power { return netsim.PowerStatic }

func (a *forgeAdversary) Setup(ctx *netsim.Ctx) {
	a.corrupt = map[types.NodeID]bool{}
	for _, id := range []types.NodeID{a.leader, a.forgedElig, a.forgedLeader, a.genuine} {
		if _, err := ctx.Corrupt(id); err != nil {
			panic(err)
		}
		a.corrupt[id] = true
	}
}

func (a *forgeAdversary) Round(ctx *netsim.Ctx) {
	if ctx.Round() != 0 {
		return
	}
	vote := func(id types.NodeID) VoteMsg {
		proof, ok := a.cfg.Suite.Miner(id).Mine(VoteTag(a.iter, types.One))
		if !ok {
			panic("λ = n miner failed")
		}
		return VoteMsg{Iter: a.iter, B: types.One, Elig: proof, Leader: a.leader, LeaderElig: a.leaderElig}
	}
	forged := func(proof []byte) []byte {
		out := append([]byte(nil), proof...)
		out[len(out)-1] ^= 1
		return out
	}
	badElig := vote(a.forgedElig)
	badElig.Elig = forged(badElig.Elig)
	badLeader := vote(a.forgedLeader)
	badLeader.LeaderElig = forged(badLeader.LeaderElig)
	sends := []struct {
		from types.NodeID
		msg  VoteMsg
	}{{a.forgedElig, badElig}, {a.forgedLeader, badLeader}, {a.genuine, vote(a.genuine)}}
	for _, s := range sends {
		if !a.unicast {
			if err := ctx.Inject(s.from, types.Broadcast, s.msg); err != nil {
				panic(err)
			}
			continue
		}
		for j := 0; j < ctx.N(); j++ {
			if !a.corrupt[types.NodeID(j)] {
				if err := ctx.Inject(s.from, types.NodeID(j), s.msg); err != nil {
					panic(err)
				}
			}
		}
	}
}

// TestScreenRejectsForgedTickets injects a vote with a forged voter ticket
// and a vote with a forged leader-proposal ticket, next to a genuine vote,
// and requires every honest recipient to count the genuine vote and ignore
// both forgeries — whether they arrive as shared deliveries or as
// per-recipient copies, and with the engine's screen set or nil.
func TestScreenRejectsForgedTickets(t *testing.T) {
	for _, unicast := range []bool{false, true} {
		for _, screened := range []bool{true, false} {
			t.Run(fmt.Sprintf("unicast=%v/screened=%v", unicast, screened), func(t *testing.T) {
				cfg := idealConfig(50, 10, 50, 21) // λ = n: every vote ticket mines
				// Find an iteration past 1 with an eligible leader for One.
				adv := &forgeAdversary{cfg: cfg, forgedElig: 1, forgedLeader: 2, genuine: 3, unicast: unicast}
				for iter := uint32(2); adv.leaderElig == nil && iter <= 40; iter++ {
					for id := types.NodeID(10); id < 50; id++ {
						if proof, ok := cfg.Suite.Miner(id).Mine(ProposeTag(iter, types.One)); ok {
							adv.iter, adv.leader, adv.leaderElig = iter, id, proof
							break
						}
					}
				}
				if adv.leaderElig == nil {
					t.Fatal("no eligible leader in 40 iterations")
				}
				inputs := make([]types.Bit, cfg.N)
				nodes, err := NewNodes(cfg, inputs)
				if err != nil {
					t.Fatal(err)
				}
				ncfg := netsim.Config{N: cfg.N, F: cfg.F, MaxRounds: 2}
				if screened {
					ncfg.Screen = Screen(cfg.Suite.Verifier())
				}
				rt, err := netsim.NewRuntime(ncfg, nodes, adv)
				if err != nil {
					t.Fatal(err)
				}
				res := rt.Run()
				honest := 0
				for i, nd := range nodes {
					if res.Corrupt[i] {
						continue
					}
					honest++
					set := nd.(*Node).voteSet(adv.iter)[types.One]
					if !set.Contains(adv.genuine) {
						t.Fatalf("node %d did not count the genuine vote", i)
					}
					if set.Contains(adv.forgedElig) {
						t.Errorf("node %d counted a vote with a forged voter ticket", i)
					}
					if set.Contains(adv.forgedLeader) {
						t.Errorf("node %d counted a vote with a forged leader ticket", i)
					}
				}
				if honest != cfg.N-4 {
					t.Fatalf("%d honest nodes, want %d", honest, cfg.N-4)
				}
			})
		}
	}
}
