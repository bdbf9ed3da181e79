"""The paper's measurement campaign: experiments, evaluation, reports.

This is the "primary contribution" layer: it reproduces every table and
figure of the paper (Tables 2-4, Figures 3-4, the §5.5 attack metrics)
on top of the TLS + testbed substrates.
"""
