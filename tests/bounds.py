"""The expected-drift bound of one profile, built the way every certified
number is: the profile's certificate.ledgers rows, summed by
certificate.ledger_total."""

from elastiq import certificate


def expected_bound(net, stats, profile):
    rows = certificate.ledgers(net, stats, [profile])[0]
    return float(certificate.ledger_total(rows))
