"""Path-template routing for the service endpoints.

Templates look like ``/v1/jobs/{id}/events``; each ``{name}`` segment
captures one path component (no slashes).  Matching distinguishes an
unknown path (404) from a known path with the wrong method (405, with
an ``Allow`` header), which clients probing the API deserve.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Tuple

from repro.serve.models import ServeError

__all__ = ["Router", "NotFound", "MethodNotAllowed"]


class NotFound(ServeError):
    status = 404


class MethodNotAllowed(ServeError):
    status = 405

    def __init__(self, message: str, allowed: List[str]):
        super().__init__(message)
        self.allowed = sorted(allowed)


_SEGMENT = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


def _compile(template: str) -> re.Pattern:
    pattern = _SEGMENT.sub(lambda m: f"(?P<{m.group(1)}>[^/]+)", re.escape(template)
                           .replace(r"\{", "{").replace(r"\}", "}"))
    return re.compile(f"^{pattern}$")


class Router:
    """Ordered (method, template) → handler table."""

    def __init__(self):
        self._routes: List[Tuple[str, re.Pattern, Callable]] = []

    def add(self, method: str, template: str, handler: Callable) -> None:
        self._routes.append((method.upper(), _compile(template), handler))

    def match(self, method: str, path: str) -> Tuple[Callable, Dict[str, str]]:
        """The handler and path params for *method path*.

        Raises :class:`NotFound` or :class:`MethodNotAllowed`.
        """
        allowed: List[str] = []
        for route_method, pattern, handler in self._routes:
            m = pattern.match(path)
            if m is None:
                continue
            if route_method != method.upper():
                allowed.append(route_method)
                continue
            return handler, m.groupdict()
        if allowed:
            raise MethodNotAllowed(
                f"{method} not allowed on {path}", allowed=allowed
            )
        raise NotFound(f"no such endpoint: {path}")
