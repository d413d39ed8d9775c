"""Alert records and the alert manager."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.nids.flow import FlowRecord


class Severity(enum.IntEnum):
    """Alert severity levels, ordered so comparisons work (CRITICAL > LOW)."""

    LOW = 1
    MEDIUM = 2
    HIGH = 3
    CRITICAL = 4


#: Default mapping from attack-class keywords to severities.
_SEVERITY_KEYWORDS: Tuple[Tuple[str, Severity], ...] = (
    ("u2r", Severity.CRITICAL),
    ("backdoor", Severity.CRITICAL),
    ("shellcode", Severity.CRITICAL),
    ("exfiltration", Severity.CRITICAL),
    ("infilt", Severity.CRITICAL),
    ("r2l", Severity.HIGH),
    ("bruteforce", Severity.HIGH),
    ("brute_force", Severity.HIGH),
    ("patator", Severity.HIGH),
    ("exploit", Severity.HIGH),
    ("worm", Severity.HIGH),
    ("bot", Severity.HIGH),
    ("dos", Severity.MEDIUM),
    ("ddos", Severity.MEDIUM),
    ("flood", Severity.MEDIUM),
    ("scan", Severity.LOW),
    ("probe", Severity.LOW),
    ("recon", Severity.LOW),
    ("fuzzer", Severity.LOW),
    ("analysis", Severity.LOW),
    ("generic", Severity.MEDIUM),
)


def classify_severity(attack_class: str) -> Severity:
    """Map an attack class name to a default severity."""
    lowered = attack_class.lower()
    for keyword, severity in _SEVERITY_KEYWORDS:
        if keyword in lowered:
            return severity
    return Severity.MEDIUM


@dataclass(frozen=True)
class Alert:
    """A single intrusion alert raised by the detection pipeline."""

    timestamp: float
    attack_class: str
    severity: Severity
    source_ip: str
    destination_ip: str
    confidence: float
    description: str = ""

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"[{self.severity.name}] {self.attack_class} "
            f"{self.source_ip} -> {self.destination_ip} "
            f"(confidence {self.confidence:.2f})"
        )


class AlertManager:
    """Collects alerts, de-duplicates repeats and tracks per-class counts.

    Parameters
    ----------
    dedup_window:
        Alerts for the same (source, destination, attack class) within this
        many seconds of a previous alert are suppressed as duplicates.
    min_confidence:
        Alerts below this confidence are dropped.
    """

    def __init__(self, dedup_window: float = 10.0, min_confidence: float = 0.0):
        self.dedup_window = float(dedup_window)
        self.min_confidence = float(min_confidence)
        self._alerts: List[Alert] = []
        self._last_seen: Dict[Tuple[str, str, str], float] = {}
        self.suppressed = 0

    # ------------------------------------------------------------------- API
    def raise_alert(
        self,
        flow: FlowRecord,
        attack_class: str,
        confidence: float,
        timestamp: Optional[float] = None,
    ) -> Optional[Alert]:
        """Create (or suppress) an alert for ``flow``; returns the alert if raised."""
        if confidence < self.min_confidence:
            self.suppressed += 1
            return None
        ts = flow.end_time if timestamp is None else timestamp
        destination = flow.key.ip_b if flow.initiator_ip == flow.key.ip_a else flow.key.ip_a
        dedup_key = (flow.initiator_ip, destination, attack_class)
        last = self._last_seen.get(dedup_key)
        if last is not None and (ts - last) < self.dedup_window:
            self.suppressed += 1
            return None
        self._last_seen[dedup_key] = ts
        alert = Alert(
            timestamp=ts,
            attack_class=attack_class,
            severity=classify_severity(attack_class),
            source_ip=flow.initiator_ip,
            destination_ip=destination,
            confidence=float(confidence),
            description=f"flow of {flow.total_packets} packets / {flow.total_bytes} bytes",
        )
        self._alerts.append(alert)
        return alert

    @property
    def alerts(self) -> List[Alert]:
        """All raised (non-suppressed) alerts."""
        return list(self._alerts)

    def count_by_class(self) -> Dict[str, int]:
        """Number of alerts per attack class."""
        counts: Dict[str, int] = {}
        for alert in self._alerts:
            counts[alert.attack_class] = counts.get(alert.attack_class, 0) + 1
        return counts

    def count_by_severity(self) -> Dict[str, int]:
        """Number of alerts per severity level name."""
        counts: Dict[str, int] = {}
        for alert in self._alerts:
            counts[alert.severity.name] = counts.get(alert.severity.name, 0) + 1
        return counts

    def highest_severity(self) -> Optional[Severity]:
        """The most severe alert raised so far (None if no alerts)."""
        if not self._alerts:
            return None
        return max(alert.severity for alert in self._alerts)

    def clear(self) -> None:
        """Drop all stored alerts and de-duplication state."""
        self._alerts.clear()
        self._last_seen.clear()
        self.suppressed = 0
