//go:build !simcount

package sim

// engineCounts counts fired events per handler, passed ticks per poll and
// passed slots per lane when the simcount build tag is set
// (count_simcount.go). In the default build it is empty and its methods
// compile to nothing, so the hot path pays for none of it.
type engineCounts struct{}

func (*engineCounts) fire(func(any), any) {}
func (*engineCounts) pass(*Poll)          {}
func (*engineCounts) passSlot(*Lane)      {}

// laneName is the callback a lane's slots stand for, kept only under the
// simcount tag; here it is empty, so a Lane pays nothing for it.
type laneName struct{}

func (laneName) set(func(any)) {}
