package decision

import (
	"math"
	"strconv"
)

// AppendRecord appends the record's canonical JSON-line encoding (no
// trailing newline) to dst and returns the extended slice. The encoding
// is deterministic — fixed field order, shortest round-tripping float
// form — so identical records encode to identical bytes, which the
// round-trip fuzz target and the golden fixtures rely on. Non-finite
// costs are clamped to math.MaxFloat64 (JSON has no Inf/NaN).
func AppendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, int64(r.Seq), 10)
	dst = append(dst, `,"time":`...)
	dst = strconv.AppendInt(dst, r.Time, 10)
	dst = append(dst, `,"trigger":`...)
	dst = appendJSONString(dst, r.Trigger)
	dst = append(dst, `,"switched":`...)
	dst = strconv.AppendBool(dst, r.Switched)
	dst = append(dst, `,"chosen":`...)
	dst = appendAlt(dst, &r.Chosen)
	if len(r.Ranked) > 0 {
		dst = append(dst, `,"ranked":[`...)
		for i := range r.Ranked {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendAlt(dst, &r.Ranked[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendAlt appends one alternative's JSON object.
func appendAlt(dst []byte, a *Alt) []byte {
	dst = append(dst, `{"bid":`...)
	dst = appendJSONFloat(dst, a.Bid)
	if len(a.Zones) > 0 {
		dst = append(dst, `,"zones":[`...)
		for i, z := range a.Zones {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(z), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"policy":`...)
	dst = appendJSONString(dst, a.Policy)
	dst = append(dst, `,"cost":`...)
	dst = appendJSONFloat(dst, a.Cost)
	return append(dst, '}')
}

// appendJSONFloat appends a float in its shortest round-tripping form,
// clamping non-finite values to math.MaxFloat64.
func appendJSONFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = math.MaxFloat64
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// appendJSONString appends a JSON string literal, escaping quotes,
// backslashes and control characters (\u00XX form).
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}
