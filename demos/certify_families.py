"""Monte Carlo certification across all five noise families.

For each family, a canned scenario (n=50 signal, m=10 dictionary) is run
twice: at the certified temperature, where the clean oracle inequality
must hold, and at half of it, where the variance-corrected form takes
over with a positive penalty coefficient. Replicates are kept modest
here; the acceptance suite runs the full R = 10^4.
"""

from ewa_agg import certify_corollary
from ewa_agg.noise import FAMILIES


def main():
    print(f"{'family':<24} {'mode':<17} {'beta':>8} {'risk':>9} {'bound':>9} "
          f"{'penalty':>9} {'slack':>9}  verdict")
    for family in FAMILIES:
        for report in certify_corollary(family, replicates=2_000):
            print(
                f"{report.family:<24} {report.mode:<17} {report.beta:>8.4f} "
                f"{report.risk_estimate:>9.4f} {report.oracle_bound:>9.4f} "
                f"{report.penalty_term:>9.4f} {report.slack:>9.4f}  "
                f"{'pass' if report.verdict else 'FAIL'}"
            )


if __name__ == "__main__":
    main()
