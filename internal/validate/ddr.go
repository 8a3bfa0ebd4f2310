package validate

import (
	"fmt"
	"strings"

	"coaxial/internal/dram"
)

// DDR is the harness for a set of DDR channels: one Oracle per
// sub-channel, plus the end-of-window queue-occupancy check. Whoever owns
// the channels watches them — a System its private channels, a rack its
// pooled devices — so each sub-channel is watched exactly once. The zero
// value watches nothing.
type DDR struct {
	subs    []*dram.SubChannel
	oracles []*Oracle // oracles[i] observes subs[i]
}

// Watch attaches an Oracle to every sub-channel of ch, labelled
// "<label>/sub<i>". Call before the first tick.
func (d *DDR) Watch(label string, ch *dram.Channel) {
	for i, sub := range ch.SubChannels() {
		o := NewOracle(sub.Config(), fmt.Sprintf("%s/sub%d", label, i))
		sub.AttachObserver(o)
		d.subs = append(d.subs, sub)
		d.oracles = append(d.oracles, o)
	}
}

// Check runs the end-of-window checks at cycle now: every watched
// sub-channel's queue occupancy against its configured depths, then each
// oracle's Quiesce. It writes the findings to b and returns their count,
// including violations beyond the oracles' storage caps. Call once, after
// the last tick.
func (d *DDR) Check(now int64, b *strings.Builder) int {
	n := 0
	for i, sub := range d.subs {
		r, w := sub.QueueOccupancy()
		cfg := sub.Config()
		if r < 0 || r > cfg.ReadQueueDepth || w < 0 || w > cfg.WriteQueueDepth {
			n++
			fmt.Fprintf(b, "occupancy: %s queue occupancy out of bounds: reads %d of %d, writes %d of %d\n",
				d.oracles[i].Label(), r, cfg.ReadQueueDepth, w, cfg.WriteQueueDepth)
		}
	}
	for _, o := range d.oracles {
		o.Quiesce(now)
		n += o.ViolationCount()
		for _, v := range o.Violations() {
			b.WriteString(v.String())
		}
	}
	return n
}
