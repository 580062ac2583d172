// Package netsim is a fixture stand-in for ccba/internal/netsim: the
// accounting struct with its blessed mutation methods, and the schedule's
// seeded coins. It doubles as the metricsflow fixture for the rule that even
// inside netsim only Metrics methods may write the fields (badwrite.go).
package netsim

import "ccba/internal/types"

type Metrics struct {
	HonestMulticasts     int
	HonestMulticastBytes int
	HonestMessages       int
	HonestMessageBytes   int
}

func (m *Metrics) CountSend(to types.NodeID, n, size int) {
	if to == types.Broadcast {
		m.HonestMulticasts++
		m.HonestMulticastBytes += size
		m.HonestMessages += n
		m.HonestMessageBytes += n * size
	} else {
		m.HonestMessages++
		m.HonestMessageBytes += size
	}
}

func (m *Metrics) Add(other Metrics) {
	m.HonestMulticasts += other.HonestMulticasts
	m.HonestMulticastBytes += other.HonestMulticastBytes
	m.HonestMessages += other.HonestMessages
	m.HonestMessageBytes += other.HonestMessageBytes
}

func LinkDrop(key uint64, round int, from, to types.NodeID, rate float64) bool { return false }

func LinkDelay(key uint64, round int, from, to types.NodeID, delta int) int { return 1 }

func Mix64(x uint64) uint64 { return x }
