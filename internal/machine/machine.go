// Package machine describes the simulated distributed-memory
// multiprocessors the compiled programs run on.
//
// The cost model is LogP-flavored: a message charges a send overhead on the
// issuing CPU, crosses the network in Wire cycles, and charges a receive
// overhead at the destination network interface. A blocking remote access
// therefore costs 2*Wire + 2*SendOv + 2*RecvOv cycles end to end; the
// per-machine parameters below are calibrated so that this round trip
// matches the remote-access latencies of Table 1 of the paper, and the
// local access cost matches its local column.
//
//	machine   remote  local   (cycles, Table 1)
//	CM-5      400     30
//	T3D       85      23
//	DASH      110     26
//
// The paper's optimizations show up in this model exactly as on the real
// machines: split-phase operations overlap the Wire cycles with CPU work,
// one-way stores eliminate the acknowledgement (saving the initiator's
// receive overhead and the network's return trip), and eliminated messages
// save everything.
package machine

import (
	"fmt"
	"strings"
)

// Config is a simulated machine description. All costs are in cycles.
type Config struct {
	Name string
	// Procs is the number of processors.
	Procs int
	// LocalCost is the cost of one access to the local memory module.
	LocalCost float64
	// SendOv is the CPU overhead to inject one message.
	SendOv float64
	// RecvOv is the overhead to handle one arriving message or ack.
	RecvOv float64
	// Wire is the one-way network latency.
	Wire float64
	// ALUCost is the CPU cost of one local IR statement.
	ALUCost float64
	// BarrierCost is the barrier release cost beyond the latest arrival.
	BarrierCost float64
}

// RemoteRoundTrip returns the end-to-end cost of one blocking remote access.
func (c Config) RemoteRoundTrip() float64 {
	return 2*c.Wire + 2*c.SendOv + 2*c.RecvOv
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Procs <= 0 {
		return fmt.Errorf("machine %s: procs must be positive, got %d", c.Name, c.Procs)
	}
	if c.LocalCost < 0 || c.SendOv < 0 || c.RecvOv < 0 || c.Wire < 0 ||
		c.ALUCost < 0 || c.BarrierCost < 0 {
		return fmt.Errorf("machine %s: negative cost", c.Name)
	}
	return nil
}

// CM5 models the Thinking Machines CM-5 of the paper's evaluation:
// remote access 400 cycles, local 30.
func CM5(procs int) Config {
	return Config{
		Name:        "CM-5",
		Procs:       procs,
		LocalCost:   30,
		SendOv:      45,
		RecvOv:      45,
		Wire:        110,
		ALUCost:     1,
		BarrierCost: 150,
	}
}

// T3D models the Cray T3D: remote access 85 cycles, local 23.
func T3D(procs int) Config {
	return Config{
		Name:        "T3D",
		Procs:       procs,
		LocalCost:   23,
		SendOv:      8,
		RecvOv:      8,
		Wire:        26.5,
		ALUCost:     1,
		BarrierCost: 40,
	}
}

// DASH models the Stanford DASH: remote access 110 cycles, local 26.
func DASH(procs int) Config {
	return Config{
		Name:        "DASH",
		Procs:       procs,
		LocalCost:   26,
		SendOv:      10,
		RecvOv:      10,
		Wire:        35,
		ALUCost:     1,
		BarrierCost: 60,
	}
}

// JMachine models a low-startup message-driven machine in the spirit of
// the MIT J-Machine, which the paper's introduction singles out: "most of
// this latency can be overlapped ... especially on machines like the
// J-Machine and *T, with their low overheads for communication startup."
// The interesting property is the *ratio*: its per-message processor
// overheads are a tiny fraction of the wire latency (2 vs 110 cycles,
// against the CM-5's 45 vs 110). Overhead is the unhideable serial part of
// communication — pipelining can overlap wire time but each injection
// still occupies the CPU — so nearly the whole round trip is hideable
// here and the relative payoff of message pipelining is even larger than
// on the CM-5.
func JMachine(procs int) Config {
	return Config{
		Name:        "J-Machine",
		Procs:       procs,
		LocalCost:   10,
		SendOv:      2,
		RecvOv:      2,
		Wire:        110,
		ALUCost:     1,
		BarrierCost: 30,
	}
}

// Ideal is a zero-latency machine for functional testing.
func Ideal(procs int) Config {
	return Config{
		Name:  "ideal",
		Procs: procs,
	}
}

// Table1 returns the three paper machines at the given size, in the order
// the paper lists them.
func Table1(procs int) []Config {
	return []Config{CM5(procs), T3D(procs), DASH(procs)}
}

// registry maps the CLI names of the machine models to their constructors.
var registry = []struct {
	name string
	mk   func(int) Config
}{
	{"cm5", CM5},
	{"t3d", T3D},
	{"dash", DASH},
	{"jmachine", JMachine},
	{"ideal", Ideal},
}

// Names returns the machine names ByName accepts, in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.name
	}
	return out
}

// ByName constructs the named machine model at the given size. It is the
// single lookup the command-line tools share.
func ByName(name string, procs int) (Config, error) {
	for _, r := range registry {
		if r.name == name {
			return r.mk(procs), nil
		}
	}
	return Config{}, fmt.Errorf("unknown machine %q (have %s)", name, strings.Join(Names(), ", "))
}
