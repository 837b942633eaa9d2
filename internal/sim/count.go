//go:build !simcount

package sim

// engineCounts counts fired events per handler and passed ticks per poll
// when the simcount build tag is set (count_simcount.go). In the default
// build it is empty and its methods compile to nothing, so the hot path
// pays for none of it.
type engineCounts struct{}

func (*engineCounts) fire(func(any), any) {}
func (*engineCounts) pass(*Poll)          {}
