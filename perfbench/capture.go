package main

import (
	"fmt"
	"sync"

	"rmmap/internal/objrt"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

// state is one captured handler output, pickled: the workload's own data,
// which the layer probes replay through each package's public calls.
type state struct {
	name      string // workflow/function
	data      []byte
	instances int // fan-out width of the producing function
}

// capturer pickles the first output of every (workflow, function) while
// the oracle runs. The oracle runs in messaging mode, where every handler
// output lives on its own local heap, so pickling it reads only local
// memory and charges only a scratch meter: capture cannot move any
// virtual result, and the outputs it sees are checked like any other.
type capturer struct {
	mu     sync.Mutex
	seen   map[string]bool
	states []state
}

func newCapturer() *capturer { return &capturer{seen: make(map[string]bool)} }

// wrap returns the capturing handler wrapper (nil on a nil capturer).
func (c *capturer) wrap() wrapFunc {
	if c == nil {
		return nil
	}
	return func(wf, fn string, h platform.Handler) platform.Handler {
		key := wf + "/" + fn
		return func(ctx *platform.Ctx) (objrt.Obj, error) {
			out, err := h(ctx)
			if err != nil || out.Runtime() == nil {
				return out, err
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.seen[key] {
				return out, nil
			}
			data, _, perr := objrt.Pickle(out, simtime.NewMeter())
			if perr != nil {
				return out, fmt.Errorf("capture %s: %w", key, perr)
			}
			c.seen[key] = true
			c.states = append(c.states, state{name: key, data: data, instances: ctx.Instances})
			return out, nil
		}
	}
}
