"""Server-side session and cursor state, with TTL-based eviction.

The HTTP front end is stateless per request, so everything a client may
come back for lives here: per-tenant :class:`ServerSession`\\ s (wrapping an
in-process :class:`repro.service.Session` plus its prepared statements) and
the :class:`~repro.service.ResultCursor`\\ s of incremental fetches.

Lifecycle discipline -- the part that keeps a long-lived server from
leaking when clients disappear mid-fetch:

* every session and cursor carries a TTL, refreshed on touch; expired
  entries are swept both opportunistically (on any registry access) and by
  the owning server's background sweeper;
* evicting or closing a session **closes every cursor it owns** (the
  cursor's idempotent, concurrent-safe ``close()`` cancels the underlying
  streaming execution at its next kernel-batch checkpoint, releasing any
  worker threads);
* :meth:`SessionRegistry.close_all` does the same for the whole registry on
  server shutdown, so a stopping server never strands executions.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.backend.base import ResultCursor
from repro.errors import NotFoundError
from repro.service.session import PreparedQuery, Session


class ServerCursor:
    """One server-held cursor: the in-process cursor plus wire bookkeeping."""

    def __init__(self, cursor_id: str, session_id: str, query: str,
                 cursor: ResultCursor, ttl_seconds: float):
        self.cursor_id = cursor_id
        self.session_id = session_id
        self.query = query
        self.cursor = cursor
        self.ttl_seconds = ttl_seconds
        self.last_used = time.monotonic()
        self.rows_served = 0
        #: fetches serialize per cursor; concurrent fetches of one cursor
        #: would interleave rows unpredictably
        self.lock = threading.Lock()

    def touch(self) -> None:
        self.last_used = time.monotonic()

    def expired(self, now: float) -> bool:
        return now - self.last_used > self.ttl_seconds


class ServerSession:
    """One tenant's server-side session: settings, statements, cursors."""

    def __init__(self, session_id: str, tenant: str, session: Session,
                 ttl_seconds: float):
        self.session_id = session_id
        self.tenant = tenant
        self.session = session
        self.ttl_seconds = ttl_seconds
        self.last_used = time.monotonic()
        self.statements: Dict[str, PreparedQuery] = {}
        self.cursor_ids: List[str] = []

    def touch(self) -> None:
        self.last_used = time.monotonic()

    def expired(self, now: float) -> bool:
        return now - self.last_used > self.ttl_seconds


class SessionRegistry:
    """Thread-safe home of all live sessions and cursors of one server."""

    def __init__(self, session_ttl_seconds: float = 300.0,
                 cursor_ttl_seconds: float = 60.0):
        self.session_ttl_seconds = session_ttl_seconds
        self.cursor_ttl_seconds = cursor_ttl_seconds
        self._lock = threading.Lock()
        self._sessions: Dict[str, ServerSession] = {}
        self._cursors: Dict[str, ServerCursor] = {}
        self._ids = itertools.count(1)
        self._sessions_expired = 0
        self._cursors_evicted = 0
        self._closed = False

    def _next_id(self, prefix: str) -> str:
        return "%s-%d" % (prefix, next(self._ids))

    # -- sessions ---------------------------------------------------------------
    def create_session(self, tenant: str, session: Session,
                       ttl_seconds: Optional[float] = None) -> ServerSession:
        entry = ServerSession(
            session_id=self._next_id("s"),
            tenant=tenant,
            session=session,
            ttl_seconds=(self.session_ttl_seconds if ttl_seconds is None
                         else ttl_seconds),
        )
        with self._lock:
            if self._closed:
                session.close()
                raise NotFoundError("server is shutting down")
            self._sessions[entry.session_id] = entry
        return entry

    def get_session(self, session_id: str, tenant: Optional[str] = None) -> ServerSession:
        """Look a session up, refresh its TTL, and enforce tenant ownership."""
        self.evict_expired()
        with self._lock:
            entry = self._sessions.get(session_id)
            if entry is None:
                raise NotFoundError("unknown or expired session %r" % (session_id,))
            if tenant is not None and entry.tenant != tenant:
                # a foreign session id is indistinguishable from an expired
                # one on purpose: ids must not leak across tenants
                raise NotFoundError("unknown or expired session %r" % (session_id,))
            entry.touch()
            return entry

    def close_session(self, session_id: str, tenant: Optional[str] = None) -> int:
        """Close a session and every cursor it owns; returns cursors closed."""
        entry = self.get_session(session_id, tenant)
        with self._lock:
            self._sessions.pop(session_id, None)
            doomed = [self._cursors.pop(cid) for cid in entry.cursor_ids
                      if cid in self._cursors]
        return self._close_session_entry(entry, doomed)

    def _close_session_entry(self, entry: ServerSession,
                             doomed: List[ServerCursor]) -> int:
        for held in doomed:
            held.cursor.close()
        entry.session.close()
        return len(doomed)

    # -- cursors ----------------------------------------------------------------
    def register_cursor(self, entry: ServerSession, query: str,
                        cursor: ResultCursor) -> ServerCursor:
        held = ServerCursor(
            cursor_id=self._next_id("c"),
            session_id=entry.session_id,
            query=query,
            cursor=cursor,
            ttl_seconds=self.cursor_ttl_seconds,
        )
        with self._lock:
            if self._closed:
                cursor.close()
                raise NotFoundError("server is shutting down")
            self._cursors[held.cursor_id] = held
            entry.cursor_ids.append(held.cursor_id)
        return held

    def get_cursor(self, cursor_id: str, tenant: Optional[str] = None) -> ServerCursor:
        self.evict_expired()
        with self._lock:
            held = self._cursors.get(cursor_id)
            if held is None:
                raise NotFoundError("unknown or expired cursor %r" % (cursor_id,))
            if tenant is not None:
                owner = self._sessions.get(held.session_id)
                if owner is None or owner.tenant != tenant:
                    raise NotFoundError("unknown or expired cursor %r" % (cursor_id,))
            held.touch()
            # a live fetch keeps the owning session alive too
            owner = self._sessions.get(held.session_id)
            if owner is not None:
                owner.touch()
            return held

    def release_cursor(self, cursor_id: str) -> None:
        """Close and drop one cursor (exhausted fetch, explicit DELETE)."""
        with self._lock:
            held = self._cursors.pop(cursor_id, None)
            if held is not None:
                owner = self._sessions.get(held.session_id)
                if owner is not None and cursor_id in owner.cursor_ids:
                    owner.cursor_ids.remove(cursor_id)
        if held is not None:
            held.cursor.close()

    # -- eviction and shutdown --------------------------------------------------
    def evict_expired(self) -> Tuple[int, int]:
        """Sweep expired sessions and cursors; returns (sessions, cursors).

        Closing happens outside the registry lock: a cursor ``close()``
        cancels an execution cooperatively, which can take a kernel batch,
        and must not block unrelated lookups meanwhile.
        """
        now = time.monotonic()
        with self._lock:
            dead_sessions = [s for s in self._sessions.values() if s.expired(now)]
            for entry in dead_sessions:
                self._sessions.pop(entry.session_id, None)
            doomed: List[ServerCursor] = []
            for entry in dead_sessions:
                doomed.extend(self._cursors.pop(cid) for cid in entry.cursor_ids
                              if cid in self._cursors)
            for held in [c for c in self._cursors.values() if c.expired(now)]:
                doomed.append(self._cursors.pop(held.cursor_id))
                owner = self._sessions.get(held.session_id)
                if owner is not None and held.cursor_id in owner.cursor_ids:
                    owner.cursor_ids.remove(held.cursor_id)
            self._sessions_expired += len(dead_sessions)
            self._cursors_evicted += len(doomed)
        for held in doomed:
            held.cursor.close()
        for entry in dead_sessions:
            entry.session.close()
        return len(dead_sessions), len(doomed)

    def close_all(self) -> None:
        """Server shutdown: close every cursor and session, refuse new ones."""
        with self._lock:
            self._closed = True
            doomed = list(self._cursors.values())
            sessions = list(self._sessions.values())
            self._cursors.clear()
            self._sessions.clear()
        for held in doomed:
            held.cursor.close()
        for entry in sessions:
            entry.session.close()

    # -- observability ----------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "sessions_open": len(self._sessions),
                "cursors_open": len(self._cursors),
                "sessions_expired_total": self._sessions_expired,
                "cursors_evicted_total": self._cursors_evicted,
            }
