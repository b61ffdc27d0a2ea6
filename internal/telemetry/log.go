// The structured leveled logger: the thin key-value front end of the
// flight recorder. Components hold a scoped *Logger and emit events
// with stable kinds; every event lands in the recorder unconditionally
// (that is the flight recorder's job — keep the recent history whether
// or not anyone is watching), and optionally echoes to a sink (text or
// JSON lines) when the operator asked for live logs.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Logger emits structured events into a Recorder and an optional sink.
// A nil Logger accepts its full method set as a no-op, so instrumented
// packages hold plain pointers that cost one branch when logging is off.
// Loggers are immutable: Scope and WithSink return derived loggers
// sharing the recorder and the sink's write mutex, so per-component
// scoping is free and concurrent sink writes stay line-atomic.
type Logger struct {
	rec   *Recorder
	scope string

	sink     io.Writer
	sinkMin  Level
	sinkJSON bool
	sinkMu   *sync.Mutex
}

// NewLogger returns a logger recording into rec (which may be nil: the
// logger then only feeds a sink attached later — useful in tests).
func NewLogger(rec *Recorder) *Logger {
	return &Logger{rec: rec, sinkMu: &sync.Mutex{}}
}

// WithSink returns a derived logger that also writes events at or above
// min to w, as JSON lines when jsonFormat is set and as text lines
// otherwise. The recorder keeps receiving every level regardless.
func (l *Logger) WithSink(w io.Writer, min Level, jsonFormat bool) *Logger {
	if l == nil {
		return nil
	}
	d := *l
	d.sink = w
	d.sinkMin = min
	d.sinkJSON = jsonFormat
	return &d
}

// Scope returns a derived logger whose events carry the given component
// name. Scoping a nil logger stays nil.
func (l *Logger) Scope(name string) *Logger {
	if l == nil {
		return nil
	}
	d := *l
	d.scope = name
	return &d
}

// Recorder returns the logger's flight recorder (nil for a nil logger).
func (l *Logger) Recorder() *Recorder {
	if l == nil {
		return nil
	}
	return l.rec
}

// Debug emits a debug-level event. kv are alternating key-value pairs;
// values are stringified immediately (see Field).
func (l *Logger) Debug(kind, msg string, kv ...any) { l.emit(LevelDebug, kind, msg, kv) }

// Info emits an info-level event.
func (l *Logger) Info(kind, msg string, kv ...any) { l.emit(LevelInfo, kind, msg, kv) }

// Warn emits a warn-level event.
func (l *Logger) Warn(kind, msg string, kv ...any) { l.emit(LevelWarn, kind, msg, kv) }

// Error emits an error-level event. Error-level events trigger the
// recorder's armed post-mortem dump (see Recorder.ArmAutoDump).
func (l *Logger) Error(kind, msg string, kv ...any) { l.emit(LevelError, kind, msg, kv) }

// fieldValue stringifies one logged value deterministically: strings
// pass through, floats use %g (shortest round-trippable is overkill for
// logs), everything else goes through fmt.Sprint.
func fieldValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case error:
		return x.Error()
	default:
		return fmt.Sprint(v)
	}
}

// makeFields pairs up the kv list. An odd trailing key gets the value
// "!MISSING" instead of panicking — a malformed log call must never
// take down a solver.
func makeFields(kv []any) []Field {
	if len(kv) == 0 {
		return nil
	}
	fields := make([]Field, 0, (len(kv)+1)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		fields = append(fields, Field{Key: fmt.Sprint(kv[i]), Value: fieldValue(kv[i+1])})
	}
	if len(kv)%2 == 1 {
		fields = append(fields, Field{Key: fmt.Sprint(kv[len(kv)-1]), Value: "!MISSING"})
	}
	return fields
}

func (l *Logger) emit(level Level, kind, msg string, kv []any) {
	if l == nil {
		return
	}
	ev := Event{TimeNs: Now(), Level: level, Scope: l.scope, Kind: kind,
		Msg: msg, Fields: makeFields(kv)}
	ev.Seq = l.rec.Append(ev)
	if l.sink != nil && level >= l.sinkMin {
		l.sinkMu.Lock()
		defer l.sinkMu.Unlock()
		if l.sinkJSON {
			b, err := json.Marshal(ev)
			if err == nil {
				b = append(b, '\n')
				l.sink.Write(b)
			}
			return
		}
		fmt.Fprintf(l.sink, "[%12.6fs] %s\n", float64(ev.TimeNs)/1e9, ev.Text())
	}
}
