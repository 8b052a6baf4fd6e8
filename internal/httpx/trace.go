package httpx

import (
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// statusWriter captures the response status for the request span.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status before delegating.
func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write defaults the status to 200 on an implicit header.
func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it can stream, so
// server-sent-event handlers keep working behind Wrap.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		if w.status == 0 {
			w.status = http.StatusOK
		}
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Wrap returns h instrumented with a wall-clock request span per
// request, named "METHOD /path", carrying the final status as an
// attribute. The span is placed in the request context so handlers can
// hang child spans off it via obs.FromContext. A nil tracer returns h
// unchanged.
func Wrap(h http.Handler, tracer *obs.Tracer) http.Handler {
	if tracer == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		span := tracer.Start(r.Method + " " + r.URL.Path)
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r.WithContext(obs.NewContext(r.Context(), span)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		span.SetAttr("status", strconv.Itoa(sw.status))
		span.End()
	})
}
