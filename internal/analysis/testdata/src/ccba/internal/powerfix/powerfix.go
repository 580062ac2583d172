// Package powerfix exercises powerbound's repo-wide rule: the schedule's
// coins netsim.LinkDrop and netsim.LinkDelay belong to netsim only.
package powerfix

import (
	"ccba/internal/netsim"
	"ccba/internal/types"
)

func decide(key uint64, round int, from, to types.NodeID) bool {
	return netsim.LinkDrop(key, round, from, to, 0.5) // want `call to netsim\.LinkDrop outside netsim`
}

func delay(key uint64, round int, from, to types.NodeID) int {
	return netsim.LinkDelay(key, round, from, to, 3) // want `call to netsim\.LinkDelay outside netsim`
}
