"""Golden outputs: the bytes of samples.csv, of every trace and histogram
file, and the warning counts of fixed CLI runs.

Each case runs `fidgibbs run --simulate ...` with m=2000, 2 chains and a
fixed seed, and compares the sha256 of samples.csv and of each
trace_<param>.csv and hist_<param>.csv, the report's warnings dict and the
sha256 of the canonical JSON of the report's params (R-hat, ESS, moments,
quantiles, histogram and convergence flag of each parameter), with values
recorded before the sampler, the summaries or the writers were refactored.  A
refactor that keeps the draws must keep these bytes; a deliberate change
of the stream layout updates the table once and says so in CHANGES.md.
Every case runs both with all chains in this process and with the chains
forked, where each process formats the samples.csv rows of its chains.
The hashes were recorded with numpy 2.4.6 and scipy 1.17.1; other
versions may round the special functions differently.
"""

import hashlib
import json
import os

import pytest

import fidgibbs.gibbs
from fidgibbs.cli import main

RUN = ["--m", "2000", "--b", "500", "--chains", "2", "--seed", "2018"]

# case -> (model arguments, sha256 of samples.csv, warnings)
GOLDEN = {
    "normal": (
        ["--model", "normal", "--simulate", "mu=1,sigma2=4,n=12"],
        "a9a11d3cd8c46f1c70afdcf7c7b4593371273db3d3788c2b4192bc1ea38e376e", {}),
    "pareto": (
        ["--model", "pareto", "--simulate", "alpha=3,beta=2,n=15"],
        "eea0bcb6decb05b9c73aaf40261ee4cb1f043598ac2cca931f1d6ce470f0fad7", {}),
    "quadreg": (
        ["--model", "quadreg", "--simulate", "beta0=1,beta1=-0.5,beta2=0.25,sigma2=0.5,n=25"],
        "02d7e3d5f4b58bfedde61679299f52d18440b4832e96c82f1436c3bd53606c36", {}),
    # n=5 leaves part of the truncated gamma interval without a root:
    # exercises the injectivity-grid and redraw counters.
    "gamma": (
        ["--model", "gamma", "--simulate", "alpha=2,beta=0.5,n=5"],
        "20cc2001238d314f70a9acbfcad112bbae954d61bd363e75c173d8b751da2408",
        {"alpha.injectivity_grid_failures": 12, "alpha.gamma_redraw": 20}),
    "beta": (
        ["--model", "beta", "--simulate", "alpha=8,beta=3,n=50"],
        "99315cda9c957d207f4877c83a3720aa34ab8f5186c01195aac0c4804cdfda44", {}),
    "behrens_fisher": (
        ["--model", "behrens_fisher", "--simulate", "mu_x=1,mu_y=0.5,sigma_x2=4,sigma_y2=1,n=8"],
        "421663b16515362334c7affdb45a715c7d7613318d65606066951b15d941018b", {}),
    # n=4 puts the excluded-gamma region of the sigma equations inside [-5, 5].
    "bivariate_normal": (
        ["--model", "bivariate_normal", "--simulate",
         "mu_x=0,mu_y=0,sigma_x2=1,sigma_y2=1,rho=0.2,n=4"],
        "8b1bd2203dc941ca1a34e7e8d068dafb2b34c4baa7f687880a7824b31070623b",
        {"sigma_x2.gamma_redraw": 3, "sigma_y2.gamma_redraw": 2}),
    "beta_scan_order": (
        ["--model", "beta", "--simulate", "alpha=8,beta=3,n=50", "--scan-order", "beta,alpha"],
        "ae0ec63702e68e2c5e33aeb7fe109e564d4c54544b302cc26b22c1b4b2c009c9", {}),
    # Shapes below 1: the small-shape start and the solve outside the
    # certificate of the beta shapes.
    "beta_small_shapes": (
        ["--model", "beta", "--simulate", "alpha=0.4,beta=0.3,n=25"],
        "480e72ab3f6d027e5be5b8e4fc94959746172fd30d7f5f4c936af55388171ecb",
        {"alpha.injectivity_grid_failures": 2, "beta.injectivity_grid_failures": 2}),
    # Statistics near |rho| = 1.
    "bivariate_normal_rho0.97": (
        ["--model", "bivariate_normal", "--simulate",
         "mu_x=0,mu_y=0,sigma_x2=1,sigma_y2=1,rho=0.97,n=30"],
        "d94c87b149a27f06451e02b3269c901c1bf223b9a2bbd44433833903d6ba80c5", {}),
    "pareto_init": (
        ["--model", "pareto", "--simulate", "alpha=3,beta=2,n=15", "--init", "alpha=1,beta=1.5"],
        "7384008984c68194d9b8819d072bb6db63ae5f79e582f839008b7460e3ccd2b0", {}),
}

# case -> sha256 of each trace_<param>.csv and hist_<param>.csv of the run
OUTPUTS = {
    "normal": {
        "hist_mu.csv": "e8e82d7371b484f5284164e19e27b2568bf618156d9e0779d07c9f9e6aa555e2",
        "hist_sigma2.csv": "1288300a5d8deced4c88773e6caa4c36afa1699c6cbec339f6539143bc2335f8",
        "trace_mu.csv": "ff8e5e46cf19f28fe78163e988ca24a30f66afcda2a1421b18a14d045158568b",
        "trace_sigma2.csv": "6e22ee06258c78e1f0da58e9bb0ef087b319a178c2731dcab93ee75e2b4bbf4e",
    },
    "pareto": {
        "hist_alpha.csv": "645a0dade7b525c6ce130ee17ef9b59ce2664c67c4d6dd8163e01bd443f6c0e8",
        "hist_beta.csv": "e1f398944d0749ba239e791a06b47231af1f29e31b60df568c103936466e4018",
        "trace_alpha.csv": "97ab19eefc146c209b0524ad1b2d2ee5f5ecf3d9c94c126405fcbf5a7384ebe0",
        "trace_beta.csv": "70f69e9d83c69f57ba7d5ab1a53a120f973a6210f587ea3740cb499ef51e1fcf",
    },
    "quadreg": {
        "hist_beta0.csv": "3006ff7003c421485cdb6f965fc7a0fc267669784df5464bcc76591b30cc82e2",
        "hist_beta1.csv": "1d2ce068d31b9441e6ee0f5781d5c2d18aac107f1d69b3dab1edb781fd35f792",
        "hist_beta2.csv": "e42bb343d1564f97ae8731299825768b7d5fb32852dedc7896be537a82439ed9",
        "hist_sigma2.csv": "1de0535a398a581b3b1e36780bfaee706b7569e628c35d0709df19fe86ea3d62",
        "trace_beta0.csv": "120ece52dd3674905884c48f183df7ca341bc315f59970218b993002c0a3a784",
        "trace_beta1.csv": "c8711dd7e64e4413e908972030908310856ae29c5dd4438b3893767741464ba5",
        "trace_beta2.csv": "18b24666e2ccbbaee42da3b586ddbed07d91b2e882107a92dbe8558fa737f762",
        "trace_sigma2.csv": "31b61f486a39a7a2141dab724784ffbad81812d61ee4c24ba145fa285243ac61",
    },
    "gamma": {
        "hist_alpha.csv": "277b475134dd022ba3e523d577ecad5ec68c72ebeedfc36e8e333a97d7454f2b",
        "hist_beta.csv": "a6e9cce871ba80e6770d27c41d9e5185df1f4d4a00892cf50f78ef75bebf8d99",
        "trace_alpha.csv": "66105c5355490284a8eeae8ee590b9addb042c3e4c76b1a7e3c62ad0c747cccf",
        "trace_beta.csv": "1a865db95cb3645cecbfbb4ca6d5652b682e194550b4e22c142dd78c99a01ede",
    },
    "beta": {
        "hist_alpha.csv": "3585377cd2f68c07e6d46f0a7d570119fe6950248448229432e23fac0ce0ddac",
        "hist_beta.csv": "79f6afd96d260ae414260179198502fa91035d64c1d8c85f7506905ef4137ebe",
        "trace_alpha.csv": "12525a2abb3b040a01050e67afa65ea9299718ddfb1bcab69f3a7aaee90dfdb8",
        "trace_beta.csv": "388db775e742aa53679570b0b2341a37bbf3081e3a871151168999bceb6ea17d",
    },
    "behrens_fisher": {
        "hist_mu_x.csv": "0cf00bc242e4fa17109c76f4b6c968abd3cab7d14060a362d880ad81e1649d3a",
        "hist_mu_y.csv": "324da7e43fd689b78d1bbf3278b7f526ab0ebd190951692045448593b73f3b09",
        "hist_sigma_x2.csv": "34afd77ff12c592a407a274b70f115d84b2dcbb0495ae47ae1f2680d7daa896e",
        "hist_sigma_y2.csv": "a2dca622009a2e76fc1e44f39f5d23468426bff61225395cf1467f8aecd91f7d",
        "trace_mu_x.csv": "f21ae74e0c92608a4b0b61c7c7e75c047547b2dec84ed6fe8fce74cf3186fc1c",
        "trace_mu_y.csv": "f0a4f9e7a97a6aec4ce50a31df7cb3f16d5a55022a1d00b61102593e24c89c7b",
        "trace_sigma_x2.csv": "865b2d6792f91003f3223f3c3d88ed758e09dde6ff52fe62dd540dc67d2711bb",
        "trace_sigma_y2.csv": "19e1d7eb05c5ac89afb853e3c1319c4dd215ed056e2bc53372cd2b9a98842185",
    },
    "bivariate_normal": {
        "hist_mu_x.csv": "e4d774e1cdc195f02f14f64727fccab3450ae9649ef3ff12a2191754be272691",
        "hist_mu_y.csv": "002d23263c52593551840e7a4ff6f338c938527c901b3ca8cf3b0501e892bec2",
        "hist_rho.csv": "1c17ff895db4730265f1206e04e4aeb97652d4eeab3850aef2ee7ab67705036f",
        "hist_sigma_x2.csv": "cf6f3de31750a89a11582a296ed12f21360f7ffb5688df8efdb1eb3148ff17b2",
        "hist_sigma_y2.csv": "90c94ad5cc33acb33a41259f835012ad176d8f45bac65fa9b10270ba4fa4eaa6",
        "trace_mu_x.csv": "2846f62998d43560e9b2b0062c8e510f1772e024b2ccd5c4465a83618687cc0a",
        "trace_mu_y.csv": "3109f2fea9a3bf7a7ed606ad92ddb5b3c0a44bee6467470e7566701409234554",
        "trace_rho.csv": "854af4a5344d04f078e03815a59810f5932a5f7e25ed85abc483e32dc04a2ecd",
        "trace_sigma_x2.csv": "3bcecfded38bdffdeb6798342cfd64d09113468dd88399d500a5c76f0c078a91",
        "trace_sigma_y2.csv": "1ead91f8b9b2d8a36d6a092b7edbd8eb7bfe98c40b517757553f655161f33933",
    },
    "beta_scan_order": {
        "hist_alpha.csv": "08b0ce57d3a1cdded33b0fb8173132d28d00a91f25fe43d41a0bd726e1c28283",
        "hist_beta.csv": "9cc3dfe367093fefa059c84e1eba543250f9c19532542dea61eaf127299829ee",
        "trace_alpha.csv": "0083981ad2bedf0b552c67746eaa579f5fd5018ef1cae5c392081c919ea69d03",
        "trace_beta.csv": "904a5c7234745abe9cab94c796be77718c682e54ab31abe2fcdaea89eea0cabb",
    },
    "beta_small_shapes": {
        "hist_alpha.csv": "19dc02985e68b3b5bd5d4e37319b249de1f00a35df09d63281aaefe6e4449c18",
        "hist_beta.csv": "fce12d10edbe7b48045e76691c3ce610e5bed2fe6e486be2e23cd6bbbc0da3a6",
        "trace_alpha.csv": "c643f36ea4dfa83209ae2a62bb6acb4702e80b56cbcaba6c8ab32be25226a35d",
        "trace_beta.csv": "909b04f65ed23617701066aa8dd007c3710c3b255c942f2154032147e0a6ea29",
    },
    "bivariate_normal_rho0.97": {
        "hist_mu_x.csv": "e9e3515a078a996ea69b056e8d04b34883a89221dc311acdb0eeb4fc41e07a2b",
        "hist_mu_y.csv": "c6bb2148c74b5b97753c15fd65cf24e2cd5b43098af9bb75da6728cbdba39c6b",
        "hist_rho.csv": "737b99f216ff5f9563eef304d8f1389d5d111dd5328b44427db98a65be907ee8",
        "hist_sigma_x2.csv": "1c46f1e35dd7eecd5a6f0a21c1c7c4639fbed4e7bc3bb1a4d3574d0132eacbfc",
        "hist_sigma_y2.csv": "73e11f0a522b6367451a76e774dc1c9d3573ad62d63715c90f8b5b4c1786377a",
        "trace_mu_x.csv": "c69c3387af7f366b43f398e0096cc2512c5b5f67d8f0aa5902a22ca763f8c1d1",
        "trace_mu_y.csv": "1e42269182308ff72c212c723d8071887733071211ed11e29947165cca977447",
        "trace_rho.csv": "b83091723378f6c593079e7a1c933d07f8dee89efc41a760ab00fab7e79f273f",
        "trace_sigma_x2.csv": "e650c0708a48567a508f86c89c517de899f8dc72cb42ae0ec9fe83cecbd66ed4",
        "trace_sigma_y2.csv": "fab783101ecf2a367c31ea06a5440f6477ee6455d23c225f4f0692b42bb8f493",
    },
    "pareto_init": {
        "hist_alpha.csv": "645a0dade7b525c6ce130ee17ef9b59ce2664c67c4d6dd8163e01bd443f6c0e8",
        "hist_beta.csv": "e1f398944d0749ba239e791a06b47231af1f29e31b60df568c103936466e4018",
        "trace_alpha.csv": "73ed7ab56a7eb35f6839d7461cd7cf69d6845ac200dfca872924e328e3b63066",
        "trace_beta.csv": "293712eafeb977d2eeac42e666a8c66b375792ddeac71cc74ce7f34a6ed650e3",
    },
}


# case -> sha256 of json.dumps(report["params"], sort_keys=True, separators=(",", ":"))
REPORT_PARAMS = {
    "behrens_fisher": "44db6b8982ac37bb2ee8cb5a6b62558d8fc8d2d397099aae37e7e9e8e894f090",
    "beta": "e7829d83ed4de6cfe34ba619b79b303d740f90d5c0083a2bbc9412167202b973",
    "beta_scan_order": "62c0d30b990df71e852bc71802ac5ba0ec1c6c64a4fccb611778a77c9f01d3ed",
    "beta_small_shapes": "145bda023cee38eccc9e37dcf738b4cd6d49a8e682b11b834215095f964955c7",
    "bivariate_normal": "089aa66fe06ab137385c7f6af78f1ce4bbca1a0581ae14631ee8c11468562440",
    "bivariate_normal_rho0.97": "b0eec0d5b67eaa6f0e5ed6e006adadadc1e2dc71d8973e5b2d8251743f98ea6a",
    "gamma": "1c7b6ef5f6b1482bb22f9ac896d96c7a7a3f4466b7bfb9971b210fdf9be7db61",
    "normal": "2970dc075a0dd5fd8131c562157ed54041ac2caa773288304641d6bb482eae9e",
    "pareto": "fe77468042c5c2cf652e2d18faa44d9db3cf5c90d060dfe4f4206cb904779da4",
    "pareto_init": "fe77468042c5c2cf652e2d18faa44d9db3cf5c90d060dfe4f4206cb904779da4",
    "quadreg": "872bd10aba4b6aa974da6233229dfaf2b92b50b4c91b8a8c93a0d65da1a0854b",
}


def _check_outputs(case, tmp_path):
    args, sha256, warnings = GOLDEN[case]
    assert main(["run", *args, *RUN, "--output-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "samples.csv").read_bytes()).hexdigest() == sha256
    # Of report.json only the params and warnings: its other content is
    # meant to grow.
    outputs = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for pattern in ("trace_*.csv", "hist_*.csv") for path in tmp_path.glob(pattern)}
    assert outputs == OUTPUTS[case]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["warnings"] == warnings
    params = json.dumps(report["params"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(params.encode()).hexdigest() == REPORT_PARAMS[case]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_samples(case, tmp_path, monkeypatch):
    # One usable CPU: every chain is sampled and formatted in this process.
    monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 1)
    _check_outputs(case, tmp_path)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_samples_forked(case, tmp_path, monkeypatch):
    # Chain 1 is sampled in a forked child, chain 0 here; the caller
    # formats both once the run returns.
    forks = []
    fork = os.fork
    monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(fidgibbs.gibbs, "_FORK_BREAK_EVEN_S", 0.0)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    _check_outputs(case, tmp_path)
    assert forks == [1]
