package main

import (
	"bytes"
	"errors"
)

// The load generator shares the host's two cores with the server it
// measures, and the hot replies are up to a megabyte of JSON: decoding each
// with encoding/json (two validating passes) cost a fifth of serve-hot's
// wall time. field finds one member of a reply's object in a single pass
// that only tracks strings and nesting — the reply's syntax is tripolld's
// own, and every oracle-checked value still goes through encoding/json.

var errNotObject = errors.New("not a JSON object")

// field returns the raw value of the top-level member key of the JSON
// object obj, or nil if obj has no such member.
func field(obj []byte, key string) ([]byte, error) {
	i := skipSpace(obj, 0)
	if i >= len(obj) || obj[i] != '{' {
		return nil, errNotObject
	}
	i = skipSpace(obj, i+1)
	for i < len(obj) && obj[i] == '"' {
		end := skipString(obj, i)
		name := obj[i+1 : max(end-1, i+1)]
		i = skipSpace(obj, end)
		if i >= len(obj) || obj[i] != ':' {
			return nil, errNotObject
		}
		start := skipSpace(obj, i+1)
		i = skipValue(obj, start)
		if string(name) == key {
			return obj[start:i], nil
		}
		i = skipSpace(obj, i)
		if i < len(obj) && obj[i] == ',' {
			i = skipSpace(obj, i+1)
		}
	}
	return nil, nil
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index after the string that starts at b[i].
func skipString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return len(b)
}

// skipValue returns the index after the JSON value that starts at b[i].
func skipValue(b []byte, i int) int {
	if i >= len(b) {
		return i
	}
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		for depth := 0; i < len(b); {
			switch b[i] {
			case '"':
				i = skipString(b, i)
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
			i++
		}
		return len(b)
	}
	if end := bytes.IndexAny(b[i:], ",}] \n\t\r"); end >= 0 {
		return i + end
	}
	return len(b)
}
