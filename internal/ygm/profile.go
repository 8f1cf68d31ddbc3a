package ygm

import (
	"fmt"
	"sort"
	"strings"
)

// Per-handler profiling: the runtime counts executions and payload bytes
// per registered handler, attributing traffic to protocol steps (graph
// construction vs dry-run vs push vs pull vs counter flushes) without any
// instrumentation in application code. Cheap enough to stay always-on —
// two array increments per message.

// HandlerProfile is one handler's aggregate activity.
type HandlerProfile struct {
	ID       HandlerID
	Name     string
	Messages int64
	Bytes    int64
}

// RegisterHandlerNamed is RegisterHandler with a label for profiles.
func (w *World) RegisterHandlerNamed(name string, h Handler) HandlerID {
	id := w.RegisterHandler(h)
	w.mu.Lock()
	for len(w.handlerNames) <= int(id) {
		w.handlerNames = append(w.handlerNames, "")
	}
	w.handlerNames[id] = name
	w.mu.Unlock()
	return id
}

// HandlerName returns the label of a handler (or "handler-<id>").
func (w *World) HandlerName(id HandlerID) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if int(id) < len(w.handlerNames) && w.handlerNames[id] != "" {
		return w.handlerNames[id]
	}
	if id == w.hForward {
		return "ygm.forward"
	}
	return fmt.Sprintf("handler-%d", id)
}

// HandlerProfiles aggregates per-handler activity across ranks, sorted by
// bytes descending. Call between parallel regions.
func (w *World) HandlerProfiles() []HandlerProfile {
	w.mu.Lock()
	numHandlers := len(w.handlers)
	w.mu.Unlock()
	// A released slot reads zero here (ReleaseHandlers zeroes its counters)
	// and is skipped below with the other silent handlers.
	agg := make([]HandlerProfile, numHandlers)
	for _, r := range w.ranks {
		for id := 0; id < len(r.hMsgs) && id < numHandlers; id++ {
			agg[id].Messages += r.hMsgs[id]
			agg[id].Bytes += r.hBytes[id]
		}
	}
	out := agg[:0]
	for id := range agg {
		if agg[id].Messages == 0 {
			continue
		}
		agg[id].ID = HandlerID(id)
		agg[id].Name = w.HandlerName(HandlerID(id))
		out = append(out, agg[id])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// FormatProfiles renders profiles as an aligned table.
func FormatProfiles(ps []HandlerProfile) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %14s %14s\n", "handler", "messages", "bytes")
	for _, p := range ps {
		fmt.Fprintf(&sb, "%-28s %14d %14d\n", p.Name, p.Messages, p.Bytes)
	}
	return sb.String()
}

func (r *Rank) profile(h uint64, payloadLen int) {
	for uint64(len(r.hMsgs)) <= h {
		r.hMsgs = append(r.hMsgs, 0)
		r.hBytes = append(r.hBytes, 0)
	}
	r.hMsgs[h]++
	r.hBytes[h] += int64(payloadLen)
}
