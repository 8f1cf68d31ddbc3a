package engine

import (
	"encoding/json"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"tripoll/internal/core"
)

// encoded is the encode-once cell of a traversal's answer: the compact JSON
// of JSONValue(Value) and of Survey. Those bytes are the same for the leader
// job, its deduped followers, the cache entry and every later hit of one
// question, so all of them point at one cell, and whoever first asks for the
// wire form (QueryResult.AppendJSON) fills it — a serving goroutine, never
// the scheduler.
type encoded struct {
	once   sync.Once
	value  []byte
	survey []byte
	err    error
	// decoded estimates the resident size of the decoded value (footprint),
	// fixed when the answer is produced.
	decoded int64
	// size is the encoded length, 0 until the cell has been filled.
	size atomic.Int64
	// filled, when set, is called once size is known: the cache charges it
	// to the entry holding this cell.
	filled func(c *encoded)
}

func encodeParts(value any, survey core.Result) (v, s []byte, err error) {
	if v, err = json.Marshal(JSONValue(value)); err != nil {
		return nil, nil, err
	}
	s, err = json.Marshal(survey)
	return v, s, err
}

// AppendJSON appends the result's wire form — the compact JSON object
// json.Marshal would produce for it with Value = JSONValue(Value) — to dst.
// The envelope is written by hand; the value and the survey come from the
// result's encode-once cell, which the first caller fills, so every later
// reply to the same question (twin, cache hit, poll) costs a copy. Results
// with no cell (index-served answers, mutations) are encoded on every call.
// fresh reports that this call ran encoding/json.
func (qr QueryResult) AppendJSON(dst []byte) (out []byte, fresh bool, err error) {
	var value, survey []byte
	if c := qr.enc; c != nil {
		c.once.Do(func() {
			fresh = true
			c.value, c.survey, c.err = encodeParts(qr.Value, qr.Survey)
			if c.err != nil {
				return
			}
			c.size.Store(int64(len(c.value) + len(c.survey)))
			if c.filled != nil {
				c.filled(c)
			}
		})
		if c.err != nil {
			return dst, fresh, c.err
		}
		value, survey = c.value, c.survey
	} else {
		fresh = true
		if value, survey, err = encodeParts(qr.Value, qr.Survey); err != nil {
			return dst, fresh, err
		}
	}
	dst = slices.Grow(dst, len(value)+len(survey)+len(qr.Graph)+len(qr.Analysis)+128)
	dst = append(dst, `{"graph":`...)
	dst = appendJSONString(dst, qr.Graph)
	dst = append(dst, `,"analysis":`...)
	dst = appendJSONString(dst, qr.Analysis)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, qr.Epoch, 10)
	dst = append(dst, `,"value":`...)
	dst = append(dst, value...)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, qr.Cached)
	if qr.IndexServed {
		dst = append(dst, `,"index_served":true`...)
	}
	dst = append(dst, `,"coalesced_with":`...)
	dst = strconv.AppendInt(dst, int64(qr.CoalescedWith), 10)
	dst = append(dst, `,"survey":`...)
	dst = append(dst, survey...)
	return append(dst, '}'), fresh, nil
}

// ResidentBytes estimates what keeping this result costs: the decoded
// value's footprint plus its encoded form once that exists. The engine
// cache and tripolld's job retention budget by it.
func (qr QueryResult) ResidentBytes() int64 {
	if c := qr.enc; c != nil {
		return c.decoded + c.size.Load()
	}
	return valueFootprint(qr.Value)
}

// appendJSONString appends s as a JSON string. Graph and analysis names
// are almost always plain; anything else takes encoding/json's escaping.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// resultOverhead is what any retained answer is charged on top of its
// value: the QueryResult, its cell and the cache's own entry.
const resultOverhead = 512

// valueFootprint is the deterministic estimate of a decoded value's
// resident size: length × entry size for maps and slices (through pointers
// and struct fields), a constant otherwise.
func valueFootprint(v any) int64 { return resultOverhead + footprint(reflect.ValueOf(v), 0) }

// footprint walks elements only where they hold further maps or slices (a
// span list's edge lists), and no deeper than the stock results nest, so a
// self-referential value terminates.
func footprint(v reflect.Value, depth int) int64 {
	const mapSlack = 16 // per-entry share of buckets, tophash and load factor
	if depth > 4 {
		return 0
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return footprint(v.Elem(), depth+1)
		}
	case reflect.Map:
		t := v.Type()
		return int64(v.Len()) * int64(t.Key().Size()+t.Elem().Size()+mapSlack)
	case reflect.Slice:
		n := int64(v.Len()) * int64(v.Type().Elem().Size())
		if holdsIndirect(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				n += footprint(v.Index(i), depth+1)
			}
		}
		return n
	case reflect.Struct:
		var n int64
		for i := 0; i < v.NumField(); i++ {
			n += footprint(v.Field(i), depth+1)
		}
		return n
	}
	return 0
}

// holdsIndirect reports whether values of t own memory outside themselves
// that footprint counts.
func holdsIndirect(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Map, reflect.Slice, reflect.Pointer, reflect.Interface:
		return true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsIndirect(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
