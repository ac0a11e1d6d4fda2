"""The optimizer's objectives, generated from `_kernels` by
``tools/flatten.py``; do not edit.  After an edit of ``_kernels.py``, run
``python tools/flatten.py`` and commit the result: until then
`optimize._objective_fn` finds ``KERNELS_SHA256`` stale, warns once and
runs the composed objectives.

``objective_no_decoy`` is `_kernels.objective_no_decoy` with every helper
inlined.  ``make_decoy_finite`` and ``make_decoy_infinite`` bind
`_kernels.objective_decoy`, specialized to a finite key (``n_pulses`` not
inf) and to an asymptotic one, to a problem's arguments.  Each gives the
composed objective's floats bit for bit.
"""

from ._kernels import (DELTA_LOG, INF, MFRAC_LOG, NAN, PENALTY,
    STATUS_EMPTY_KEY, STATUS_FLUCTUATION, STATUS_NO_UNTAGGED, STATUS_OK,
    STATUS_WINDOW, U_LOG, erf, exp, expm1, isfinite, lgamma, log, log1p, log2,
    sqrt)

KERNELS_SHA256 = "06bce496d333a569f12167b74bb3ff6f5fc2e2e582e654cb4330cde128255454"


def objective_no_decoy(raw, m_a, eta, n_pulses, phys, flags):
    z_14 = raw[0]
    log_lo_16, log_span_17 = DELTA_LOG
    if z_14 >= 0.0:
        s_18 = 1.0 / (1.0 + exp(-z_14))
    else:
        ez_15 = exp(z_14)
        s_18 = ez_15 / (1.0 + ez_15)
    delta_3 = exp(log_lo_16 + s_18 * log_span_17)
    z_19 = raw[1]
    log_lo_21, log_span_22 = U_LOG
    if z_19 >= 0.0:
        s_23 = 1.0 / (1.0 + exp(-z_19))
    else:
        ez_20 = exp(z_19)
        s_23 = ez_20 / (1.0 + ez_20)
    u_9 = exp(log_lo_21 + s_23 * log_span_22)
    q_split_25 = phys[8]
    cap_26 = (1.0 - q_split_25) / (q_split_25 * (1.0 + delta_3) * m_a)
    lambda_cap_kernel_24 = cap_26 if cap_26 < 1.0 else 1.0
    lam_4 = u_9 * lambda_cap_kernel_24
    if n_pulses == INF:
        lam, delta, finite = (lam_4, delta_3, None)
    else:
        z_27 = raw[2]
        log_lo_29, log_span_30 = MFRAC_LOG
        if z_27 >= 0.0:
            s_31 = 1.0 / (1.0 + exp(-z_27))
        else:
            ez_28 = exp(z_27)
            s_31 = ez_28 / (1.0 + ez_28)
        mfrac_6 = exp(log_lo_29 + s_31 * log_span_30)
        q_split_33 = phys[8]
        mu_32 = m_a * lam_4 * q_split_33
        y0_34 = phys[2]
        e_det_35 = phys[3]
        e0_36 = phys[4]
        with_eta_37 = flags[0]
        x_40 = mu_32 * eta if with_eta_37 == 1 else mu_32
        detected_38 = -expm1(-x_40)
        q_39 = y0_34 + detected_38
        if q_39 == 0.0:
            q_7, __1 = (q_39, NAN)
        else:
            q_7, __1 = (q_39, (e0_36 * y0_34 + e_det_35 * detected_38) / q_39)
        m_e_5 = mfrac_6 * 0.5 * q_7 * n_pulses
        budget_2 = phys[9] - phys[10]
        z_42 = raw[3]
        _weight_41 = exp(40.0 if z_42 > 40.0 else -40.0 if z_42 < -40.0 else z_42)
        z_44 = raw[4]
        _weight_43 = exp(40.0 if z_44 > 40.0 else -40.0 if z_44 < -40.0 else z_44)
        z_46 = raw[5]
        _weight_45 = exp(40.0 if z_46 > 40.0 else -40.0 if z_46 < -40.0 else z_46)
        z_48 = raw[6]
        _weight_47 = exp(40.0 if z_48 > 40.0 else -40.0 if z_48 < -40.0 else z_48)
        w0_10, w1_11, w2_12, w3_13 = (_weight_41, _weight_43, _weight_45, _weight_47)
        tot_8 = w0_10 + w1_11 + w2_12 + w3_13
        lam, delta, finite = (lam_4, delta_3, (n_pulses, m_e_5, budget_2 * w0_10 / tot_8, budget_2 * w1_11 / tot_8, budget_2 * w2_12 / tot_8, budget_2 * w3_13 / tot_8))
    q_split_66 = phys[8]
    lam_p_58 = lam * q_split_66 / (1.0 - q_split_66)
    rate_69 = mu_60 = q_64 = e_51 = p_u_63 = qu_low_67 = qu_up_68 = q1u_65 = e1u_52 = NAN
    if finite is None:
        corr_50, n_raw_62, sifted_70 = (0.0, INF, INF)
    else:
        n_pulses_61, m_e_59, eps_pa_56, eps_bar_54, eps_u_57, eps_e_55 = finite
        corr_50 = n_raw_62 = sifted_70 = NAN
    status_71 = STATUS_OK
    window_violated_72 = (1.0 + delta) * m_a * lam_p_58 >= 1.0 or lam_p_58 > 1.0
    if window_violated_72:
        status_71 = STATUS_WINDOW
    else:
        mu_60 = m_a * lam * q_split_66
        y0_73 = phys[2]
        e_det_74 = phys[3]
        e0_75 = phys[4]
        with_eta_76 = flags[0]
        x_79 = mu_60 * eta if with_eta_76 == 1 else mu_60
        detected_77 = -expm1(-x_79)
        q_78 = y0_73 + detected_77
        if q_78 == 0.0:
            q_64, e_51 = (q_78, NAN)
        else:
            q_64, e_51 = (q_78, (e0_75 * y0_73 + e_det_74 * detected_77) / q_78)
        half_inside_80 = flags[1]
        if half_inside_80 == 1:
            arg_81 = delta * sqrt(m_a * (1.0 - q_split_66) / 2.0)
        else:
            arg_81 = delta * sqrt(m_a * (1.0 - q_split_66)) / 2.0
        p_u_63 = erf(arg_81)
        if p_u_63 <= 0.0:
            status_71 = STATUS_NO_UNTAGGED
    if finite is not None and status_71 == STATUS_OK:
        if not isfinite(n_pulses_61):
            xi_kernel_82 = 0.0
        else:
            xi_kernel_82 = sqrt((log(1.0 / eps_u_57) + 2.0 * log(n_pulses_61 + 1.0)) / (2.0 * n_pulses_61))
        p_u_63 -= xi_kernel_82
        if p_u_63 <= 0.0:
            status_71 = STATUS_FLUCTUATION
        elif isfinite(n_pulses_61):
            sifted_70 = 0.5 * q_64 * n_pulses_61
            n_raw_62 = sifted_70 - m_e_59
        else:
            sifted_70 = n_raw_62 = INF
    if status_71 == STATUS_OK and (q_64 == 0.0 or n_raw_62 <= 0.0):
        status_71 = STATUS_EMPTY_KEY
    if status_71 == STATUS_OK:
        qu_up_68 = q_64 / p_u_63
        low_83 = (q_64 - (1.0 - p_u_63)) / p_u_63
        qu_low_67 = 0.0 if low_83 < 0.0 else low_83
        if lam_p_58 <= 0.0:
            p0_84 = 1.0 if 0 == 0 else 0.0
        else:
            hi_86 = (1.0 + delta) * m_a
            lo_87 = (1.0 - delta) * m_a
            bound_85, zero_bound_88 = (hi_86, lo_87) if 0 == 1 else (lo_87, hi_86)
            if 0 == 0:
                p0_84 = exp(zero_bound_88 * log1p(-lam_p_58))
            elif 0 > bound_85:
                p0_84 = 0.0
            else:
                if 0 > bound_85:
                    log_choose_kernel_89 = -INF
                else:
                    log_choose_kernel_89 = lgamma(bound_85 + 1.0) - lgamma(0 + 1.0) - lgamma(bound_85 - 0 + 1.0)
                p0_84 = exp(log_choose_kernel_89 + 0 * log(lam_p_58) + (bound_85 - 0) * log1p(-lam_p_58))
        upper_91 = flags[2]
        if lam_p_58 <= 0.0:
            p1_90 = 1.0 if 1 == 0 else 0.0
        else:
            hi_93 = (1.0 + delta) * m_a
            lo_94 = (1.0 - delta) * m_a
            bound_92, zero_bound_95 = (hi_93, lo_94) if upper_91 == 1 else (lo_94, hi_93)
            if 1 == 0:
                p1_90 = exp(zero_bound_95 * log1p(-lam_p_58))
            elif 1 > bound_92:
                p1_90 = 0.0
            else:
                if 1 > bound_92:
                    log_choose_kernel_96 = -INF
                else:
                    log_choose_kernel_96 = lgamma(bound_92 + 1.0) - lgamma(1 + 1.0) - lgamma(bound_92 - 1 + 1.0)
                p1_90 = exp(log_choose_kernel_96 + 1 * log(lam_p_58) + (bound_92 - 1) * log1p(-lam_p_58))
        q1u_97 = qu_low_67 + p0_84 + p1_90 - 1.0
        q1u_65 = 0.0 if q1u_97 < 0.0 else q1u_97
        if q1u_65 > qu_up_68:
            q1u_65 = qu_up_68
        if q1u_65 > 0.0:
            if finite is None:
                e_up_53 = e_51
            else:
                if not isfinite(m_e_59):
                    xi_kernel_98 = 0.0
                else:
                    xi_kernel_98 = sqrt((log(1.0 / eps_e_55) + 2.0 * log(m_e_59 + 1.0)) / (2.0 * m_e_59))
                e_up_53 = e_51 + xi_kernel_98
            e1u_52 = q_64 * e_up_53 / q1u_65
        if e_51 <= 0.0 or e_51 >= 1.0:
            h2_kernel_99 = 0.0
        else:
            h2_kernel_99 = -e_51 * log2(e_51) - (1.0 - e_51) * log2(1.0 - e_51)
        if q1u_65 > 0.0:
            x_102 = e1u_52 if e1u_52 < 0.5 else 0.5
            if x_102 <= 0.0 or x_102 >= 1.0:
                h2_kernel_101 = 0.0
            else:
                h2_kernel_101 = -x_102 * log2(x_102) - (1.0 - x_102) * log2(1.0 - x_102)
            _privacy_100 = 1.0 * q1u_65 * (1.0 - h2_kernel_101)
        else:
            _privacy_100 = 0.0
        rate_69 = 0.5 * (-q_64 * phys[6] * h2_kernel_99 + _privacy_100)
        if finite is not None:
            eps_pe_103 = min(eps_u_57, eps_e_55)
            if not isfinite(n_raw_62):
                corr_50 = 0.0
            else:
                corr_50 = log2(2.0 / eps_pe_103) / n_raw_62 + 7.0 * sqrt((1.0 - log2(eps_bar_54)) / n_raw_62) + 2.0 * log2(1.0 / (2.0 * eps_pa_56)) / n_raw_62
            rate_69 -= 0.5 * q_64 * corr_50
            if flags[4] == 1 and isfinite(sifted_70):
                rate_69 *= 1.0 - m_e_59 / sifted_70
    res_49 = (status_71, rate_69, mu_60, NAN, q_64, e_51, NAN, NAN, p_u_63, NAN, NAN, qu_low_67, qu_up_68, q1u_65, e1u_52, corr_50, n_raw_62, sifted_70)
    if res_49[0] == STATUS_OK:
        return res_49[1]
    elif res_49[0] == STATUS_FLUCTUATION:
        guide_104 = min(res_49[8], res_49[9], res_49[10])
        return PENALTY + (guide_104 if guide_104 == guide_104 else -1.0)
    else:
        return PENALTY


def make_decoy_finite(m_a, eta, n_pulses, phys, flags):
    bound = phys[8]
    bound_1 = phys[2]
    bound_2 = flags[0]
    bound_3 = phys[9] - phys[10]
    bound_4 = phys[3]
    bound_5 = phys[4]
    bound_6 = flags[1]
    bound_7 = 0.5 * n_pulses
    bound_8 = phys[5]
    bound_9 = flags[3]
    bound_10 = phys[6]
    bound_11 = flags[4]
    bound_12 = 1.0 - bound
    bound_13 = bound_5 * bound_1
    bound_14 = bound_8 * bound_1
    bound_17 = m_a * bound_12
    bound_15 = bound_17 / 2.0
    def objective_decoy(raw):
        z_23 = raw[0]
        if z_23 >= 0.0:
            s_27 = 1.0 / (1.0 + exp(-z_23))
        else:
            ez_24 = exp(z_23)
            s_27 = ez_24 / (1.0 + ez_24)
        delta_10 = exp(-11.512925464970229 + s_27 * 11.407564949312402)
        z_28 = raw[1]
        if z_28 >= 0.0:
            s_32 = 1.0 / (1.0 + exp(-z_28))
        else:
            ez_29 = exp(z_28)
            s_32 = ez_29 / (1.0 + ez_29)
        shared_1 = 1.0 + delta_10
        cap_35 = bound_12 / (bound * shared_1 * m_a)
        lam_s_12 = exp(-23.025850929940457 + s_32 * 23.025750924940123) * (cap_35 if cap_35 < 1.0 else 1.0)
        z_37 = raw[2]
        if z_37 >= 0.0:
            s_41 = 1.0 / (1.0 + exp(-z_37))
        else:
            ez_38 = exp(z_37)
            s_41 = ez_38 / (1.0 + ez_38)
        z_42 = raw[3]
        if z_42 >= 0.0:
            s_46 = 1.0 / (1.0 + exp(-z_42))
        else:
            ez_43 = exp(z_42)
            s_46 = ez_43 / (1.0 + ez_43)
        z_48 = raw[4]
        z_50 = raw[5]
        z_52 = raw[6]
        ws_20 = exp(40.0 if z_48 > 40.0 else -40.0 if z_48 < -40.0 else z_48)
        wd_19 = exp(40.0 if z_50 > 40.0 else -40.0 if z_50 < -40.0 else z_50)
        wt_21 = ws_20 + wd_19 + exp(40.0 if z_52 > 40.0 else -40.0 if z_52 < -40.0 else z_52)
        p_s_16 = ws_20 / wt_21
        mu_53 = m_a * lam_s_12 * bound
        z_63 = raw[7]
        z_65 = raw[8]
        z_67 = raw[9]
        b0_2 = exp(40.0 if z_63 > 40.0 else -40.0 if z_63 < -40.0 else z_63)
        b1_3 = exp(40.0 if z_65 > 40.0 else -40.0 if z_65 < -40.0 else z_65)
        b2_4 = exp(40.0 if z_67 > 40.0 else -40.0 if z_67 < -40.0 else z_67)
        z_69 = raw[10]
        z_71 = raw[11]
        z_73 = raw[12]
        b3_5 = exp(40.0 if z_69 > 40.0 else -40.0 if z_69 < -40.0 else z_69)
        b4_6 = exp(40.0 if z_71 > 40.0 else -40.0 if z_71 < -40.0 else z_71)
        b5_7 = exp(40.0 if z_73 > 40.0 else -40.0 if z_73 < -40.0 else z_73)
        bt_8 = b0_2 + b1_3 + b2_4 + b3_5 + b4_6 + b5_7
        lam_d = lam_s_12 * exp(-9.210340371976182 + s_41 * 9.2098402469345)
        shared_7 = -expm1(-(mu_53 * eta if bound_2 == 1 else mu_53))
        shared_8 = bound_1 + shared_7
        finite_1 = exp(-13.815510557964274 + s_46 * 13.810498016140729) * 0.5 * n_pulses * p_s_16 * shared_8
        finite_3 = wd_19 / wt_21
        finite_4 = bound_3 * b0_2 / bt_8
        finite_5 = bound_3 * b1_3 / bt_8
        finite_6 = bound_3 * b2_4 / bt_8
        finite_7 = bound_3 * b3_5 / bt_8
        finite_8 = bound_3 * b4_6 / bt_8
        finite_9 = bound_3 * b5_7 / bt_8
        lam_p_s_91 = lam_s_12 * bound / bound_12
        lam_p_d_90 = lam_d * bound / bound_12
        rate_111 = (1e309-1e309)
        q_s_106 = (1e309-1e309)
        e_s_80 = (1e309-1e309)
        q_d_105 = (1e309-1e309)
        pu_s_102 = (1e309-1e309)
        pu_d_101 = (1e309-1e309)
        pu_v_103 = (1e309-1e309)
        p_v_100 = 1.0 - p_s_16 - finite_3
        n_raw_96 = (1e309-1e309)
        sifted_112 = (1e309-1e309)
        status_113 = 0.0
        if lam_d >= lam_s_12 or lam_d <= 0.0 or (p_v_100 <= 0.0 or p_s_16 <= 0.0 or finite_3 <= 0.0):
            status_113 = 5.0
        elif shared_1 * m_a * lam_p_s_91 >= 1.0 or lam_p_s_91 > 1.0:
            status_113 = 1.0
        else:
            mu_d_93 = m_a * lam_d * bound
            if shared_8 == 0.0:
                q_s_106 = shared_8
                e_s_80 = (1e309-1e309)
            else:
                q_s_106 = shared_8
                e_s_80 = (bound_13 + bound_4 * shared_7) / shared_8
            q_d_105 = bound_1 + -expm1(-(mu_d_93 * eta if bound_2 == 1 else mu_d_93))
            if bound_6 == 1:
                arg_127 = delta_10 * sqrt(bound_15)
            else:
                arg_127 = delta_10 * sqrt(bound_17) / 2.0
            coverage_kernel_125 = erf(arg_127)
            pu_s_102 = coverage_kernel_125
            pu_d_101 = coverage_kernel_125
            pu_v_103 = coverage_kernel_125
            if coverage_kernel_125 <= 0.0:
                status_113 = 2.0
        if status_113 == 0.0:
            m_129 = n_pulses * p_s_16
            if not isfinite(m_129):
                xi_kernel_128 = 0.0
            else:
                xi_kernel_128 = sqrt((log(1.0 / finite_6) + 2.0 * log(m_129 + 1.0)) / (2.0 * m_129))
            pu_s_102 = coverage_kernel_125 - xi_kernel_128
            m_131 = n_pulses * finite_3
            if not isfinite(m_131):
                xi_kernel_130 = 0.0
            else:
                xi_kernel_130 = sqrt((log(1.0 / finite_7) + 2.0 * log(m_131 + 1.0)) / (2.0 * m_131))
            pu_d_101 = coverage_kernel_125 - xi_kernel_130
            m_133 = n_pulses * p_v_100
            if not isfinite(m_133):
                xi_kernel_132 = 0.0
            else:
                xi_kernel_132 = sqrt((log(1.0 / finite_8) + 2.0 * log(m_133 + 1.0)) / (2.0 * m_133))
            pu_v_103 = coverage_kernel_125 - xi_kernel_132
            if pu_s_102 <= 0.0 or pu_d_101 <= 0.0 or pu_v_103 <= 0.0:
                status_113 = 3.0
            elif isfinite(n_pulses):
                sifted_112 = bound_7 * p_s_16 * q_s_106
                n_raw_96 = sifted_112 - finite_1
            else:
                sifted_112 = 1e309
                n_raw_96 = 1e309
        if status_113 == 0.0 and (q_s_106 == 0.0 or n_raw_96 <= 0.0):
            status_113 = 4.0
        if status_113 == 0.0:
            qu_s_up_110 = q_s_106 / pu_s_102
            low_134 = (q_d_105 - (1.0 - pu_d_101)) / pu_d_101
            qu_d_low_109 = 0.0 if low_134 < 0.0 else low_134
            low_136 = (bound_14 - (1.0 - pu_v_103)) / pu_v_103
            eq_v_low_89 = 0.0 if low_136 < 0.0 else low_136
            if not isfinite(finite_1):
                xi_kernel_137 = 0.0
            else:
                xi_kernel_137 = sqrt((log(1.0 / finite_9) + 2.0 * log(finite_1 + 1.0)) / (2.0 * finite_1))
            qu_v_up_138 = bound_1 / pu_v_103
            eq_s_up_139 = q_s_106 * (e_s_80 + xi_kernel_137) / pu_s_102
            hi_147 = shared_1 * m_a
            lo_148 = (1.0 - delta_10) * m_a
            if 1 > lo_148:
                c1_lo_142 = (1e309-1e309)
                c2_lo_144 = (1e309-1e309)
            else:
                lg_161 = lgamma(lo_148 + 1.0)
                c1_160 = lg_161 - 0.0 - lgamma(lo_148 - 1.0 + 1.0)
                if 2 > lo_148:
                    c1_lo_142 = c1_160
                    c2_lo_144 = (1e309-1e309)
                else:
                    c1_lo_142 = c1_160
                    c2_lo_144 = lg_161 - 0.693147180559945 - lgamma(lo_148 - 2.0 + 1.0)
            if 1 > hi_147:
                c1_hi_141 = (1e309-1e309)
                c2_hi_143 = (1e309-1e309)
            else:
                lg_163 = lgamma(hi_147 + 1.0)
                c1_162 = lg_163 - 0.0 - lgamma(hi_147 - 1.0 + 1.0)
                if 2 > hi_147:
                    c1_hi_141 = c1_162
                    c2_hi_143 = (1e309-1e309)
                else:
                    c1_hi_141 = c1_162
                    c2_hi_143 = lg_163 - 0.693147180559945 - lgamma(hi_147 - 2.0 + 1.0)
            if lam_p_s_91 <= 0.0:
                p0s_l_151 = 1.0
                p1s_l_153 = 0.0
                p2s_l_156 = 0.0
            else:
                log_lp_164 = log(lam_p_s_91)
                log_q_165 = log1p(-lam_p_s_91)
                p0s_l_151 = exp(hi_147 * log_q_165)
                p1s_l_153 = 0.0 if 1 > lo_148 else exp(c1_lo_142 + log_lp_164 + (lo_148 - 1.0) * log_q_165)
                p2s_l_156 = 0.0 if 2 > lo_148 else exp(c2_lo_144 + 2 * log_lp_164 + (lo_148 - 2.0) * log_q_165)
            if lam_p_d_90 <= 0.0:
                p0d_u_150 = 1.0
                p1d_u_152 = 0.0
                p2d_u_155 = 0.0
            else:
                log_lp_168 = log(lam_p_d_90)
                log_q_169 = log1p(-lam_p_d_90)
                p0d_u_150 = exp(lo_148 * log_q_169)
                p1d_u_152 = 0.0 if 1 > hi_147 else exp(c1_hi_141 + log_lp_168 + (hi_147 - 1.0) * log_q_169)
                p2d_u_155 = 0.0 if 2 > hi_147 else exp(c2_hi_143 + 2 * log_lp_168 + (hi_147 - 2.0) * log_q_169)
            if bound_9 == 0:
                vac_159 = p0s_l_151 * p2d_u_155 - p0d_u_150 * p2s_l_156
                den_146 = p1d_u_152 * p2s_l_156 - p1s_l_153 * p2d_u_155
            else:
                if lam_p_s_91 <= 0.0:
                    _envelope_172_2 = 0.0
                else:
                    _envelope_172_2 = 0.0 if 2 > hi_147 else exp(c2_hi_143 + 2 * log(lam_p_s_91) + (hi_147 - 2.0) * log1p(-lam_p_s_91))
                if lam_p_d_90 <= 0.0:
                    _envelope_177_2 = 0.0
                else:
                    _envelope_177_2 = 0.0 if 2 > lo_148 else exp(c2_lo_144 + 2 * log(lam_p_d_90) + (lo_148 - 2.0) * log1p(-lam_p_d_90))
                if bound_9 == 1:
                    vac_159 = p0s_l_151 * _envelope_177_2 - p0d_u_150 * p0s_l_151
                else:
                    vac_159 = p0s_l_151 * _envelope_177_2 - p0d_u_150 * _envelope_172_2
                den_146 = p1d_u_152 * _envelope_172_2 - p1s_l_153 * _envelope_177_2
            if lo_148 >= 320.0:
                corr_145 = 0.0
            elif delta_10 <= 0.0 or p2s_l_156 <= 0.0 or lam_p_d_90 >= 1.0:
                corr_145 = 0.0
            else:
                shared_3 = 2.0 * delta_10 * m_a
                lc_182 = log(shared_3) + (shared_3 - 1.0) * log1p(-lam_p_d_90) + log(p2s_l_156) - lgamma(lo_148 + 2.0)
                if lc_182 < -700.0:
                    corr_145 = 0.0
                else:
                    corr_145 = exp(lc_182)
            q1u_158 = 0.0
            if den_146 > 0.0:
                q1u_158 = p1s_l_153 * (qu_d_low_109 * p2s_l_156 - qu_s_up_110 * p2d_u_155 + qu_v_up_138 * vac_159 - corr_145) / den_146
                if q1u_158 < 0.0:
                    q1u_158 = 0.0
                elif q1u_158 > qu_s_up_110:
                    q1u_158 = qu_s_up_110
            if q1u_158 <= 0.0:
                q1u_104 = 0.0
                e1u_77 = (1e309-1e309)
            else:
                e1u_184 = (eq_s_up_139 - p0s_l_151 * eq_v_low_89) / q1u_158
                q1u_104 = q1u_158
                e1u_77 = 0.0 if e1u_184 < 0.0 else e1u_184
            if e_s_80 <= 0.0 or e_s_80 >= 1.0:
                h2_kernel_185 = 0.0
            else:
                shared_4 = 1.0 - e_s_80
                h2_kernel_185 = -e_s_80 * log2(e_s_80) - shared_4 * log2(shared_4)
            if q1u_104 > 0.0:
                x_188 = e1u_77 if e1u_77 < 0.5 else 0.5
                if x_188 <= 0.0 or x_188 >= 1.0:
                    h2_kernel_187 = 0.0
                else:
                    shared_5 = 1.0 - x_188
                    h2_kernel_187 = -x_188 * log2(x_188) - shared_5 * log2(shared_5)
                _privacy_186 = pu_s_102 * q1u_104 * (1.0 - h2_kernel_187)
            else:
                _privacy_186 = 0.0
            shared_6 = 0.5 * p_s_16
            rate_111 = shared_6 * (-q_s_106 * bound_10 * h2_kernel_185 + _privacy_186)
            eps_pe_189 = min(finite_6, finite_7, finite_8, finite_9)
            if not isfinite(n_raw_96):
                corr_75 = 0.0
            else:
                corr_75 = log2(2.0 / eps_pe_189) / n_raw_96 + 7.0 * sqrt((1.0 - log2(finite_5)) / n_raw_96) + 2.0 * log2(1.0 / (2.0 * finite_4)) / n_raw_96
            rate_111 -= shared_6 * q_s_106 * corr_75
            if bound_11 == 1 and isfinite(sifted_112):
                rate_111 *= 1.0 - finite_1 / sifted_112
        if status_113 == 0.0:
            return rate_111
        elif status_113 == 3.0:
            guide_190 = min(pu_s_102, pu_d_101, pu_v_103)
            return -1000000.0 + (guide_190 if guide_190 == guide_190 else -1.0)
        else:
            return -1000000.0
    return objective_decoy


def make_decoy_infinite(m_a, eta, n_pulses, phys, flags):
    bound = phys[8]
    bound_1 = phys[2]
    bound_2 = phys[3]
    bound_3 = phys[4]
    bound_4 = flags[0]
    bound_5 = flags[1]
    bound_6 = phys[5]
    bound_7 = flags[3]
    bound_8 = phys[6]
    bound_10 = 1.0 - bound
    bound_11 = bound_3 * bound_1
    bound_15 = m_a * bound_10
    bound_12 = bound_15 / 2.0
    bound_14 = bound_6 * bound_1
    def objective_decoy(raw):
        z_23 = raw[0]
        if z_23 >= 0.0:
            s_27 = 1.0 / (1.0 + exp(-z_23))
        else:
            ez_24 = exp(z_23)
            s_27 = ez_24 / (1.0 + ez_24)
        delta_10 = exp(-11.512925464970229 + s_27 * 11.407564949312402)
        z_28 = raw[1]
        if z_28 >= 0.0:
            s_32 = 1.0 / (1.0 + exp(-z_28))
        else:
            ez_29 = exp(z_28)
            s_32 = ez_29 / (1.0 + ez_29)
        shared = 1.0 + delta_10
        cap_35 = bound_10 / (bound * shared * m_a)
        lam_s_12 = exp(-23.025850929940457 + s_32 * 23.025750924940123) * (cap_35 if cap_35 < 1.0 else 1.0)
        z_37 = raw[2]
        if z_37 >= 0.0:
            s_41 = 1.0 / (1.0 + exp(-z_37))
        else:
            ez_38 = exp(z_37)
            s_41 = ez_38 / (1.0 + ez_38)
        lam_d = lam_s_12 * exp(-9.210340371976182 + s_41 * 9.2098402469345)
        lam_p_s_91 = lam_s_12 * bound / bound_10
        lam_p_d_90 = lam_d * bound / bound_10
        rate_111 = (1e309-1e309)
        q_s_106 = (1e309-1e309)
        e_s_80 = (1e309-1e309)
        q_d_105 = (1e309-1e309)
        pu_s_102 = (1e309-1e309)
        pu_d_101 = (1e309-1e309)
        pu_v_103 = (1e309-1e309)
        status_113 = 0.0
        if lam_d >= lam_s_12 or lam_d <= 0.0:
            status_113 = 5.0
        elif shared * m_a * lam_p_s_91 >= 1.0 or lam_p_s_91 > 1.0:
            status_113 = 1.0
        else:
            mu_s_94 = m_a * lam_s_12 * bound
            mu_d_93 = m_a * lam_d * bound
            detected_118 = -expm1(-(mu_s_94 * eta if bound_4 == 1 else mu_s_94))
            q_119 = bound_1 + detected_118
            if q_119 == 0.0:
                q_s_106 = q_119
                e_s_80 = (1e309-1e309)
            else:
                q_s_106 = q_119
                e_s_80 = (bound_11 + bound_2 * detected_118) / q_119
            q_d_105 = bound_1 + -expm1(-(mu_d_93 * eta if bound_4 == 1 else mu_d_93))
            if bound_5 == 1:
                arg_127 = delta_10 * sqrt(bound_12)
            else:
                arg_127 = delta_10 * sqrt(bound_15) / 2.0
            coverage_kernel_125 = erf(arg_127)
            pu_s_102 = coverage_kernel_125
            pu_d_101 = coverage_kernel_125
            pu_v_103 = coverage_kernel_125
            if coverage_kernel_125 <= 0.0:
                status_113 = 2.0
        if status_113 == 0.0 and q_s_106 == 0.0:
            status_113 = 4.0
        if status_113 == 0.0:
            qu_s_up_110 = q_s_106 / pu_s_102
            low_134 = (q_d_105 - (1.0 - pu_d_101)) / pu_d_101
            qu_d_low_109 = 0.0 if low_134 < 0.0 else low_134
            low_136 = (bound_14 - (1.0 - pu_v_103)) / pu_v_103
            eq_v_low_89 = 0.0 if low_136 < 0.0 else low_136
            qu_v_up_138 = bound_1 / pu_v_103
            eq_s_up_139 = q_s_106 * e_s_80 / pu_s_102
            hi_147 = shared * m_a
            lo_148 = (1.0 - delta_10) * m_a
            if 1 > lo_148:
                c1_lo_142 = (1e309-1e309)
                c2_lo_144 = (1e309-1e309)
            else:
                lg_161 = lgamma(lo_148 + 1.0)
                c1_160 = lg_161 - 0.0 - lgamma(lo_148 - 1.0 + 1.0)
                if 2 > lo_148:
                    c1_lo_142 = c1_160
                    c2_lo_144 = (1e309-1e309)
                else:
                    c1_lo_142 = c1_160
                    c2_lo_144 = lg_161 - 0.693147180559945 - lgamma(lo_148 - 2.0 + 1.0)
            if 1 > hi_147:
                c1_hi_141 = (1e309-1e309)
                c2_hi_143 = (1e309-1e309)
            else:
                lg_163 = lgamma(hi_147 + 1.0)
                c1_162 = lg_163 - 0.0 - lgamma(hi_147 - 1.0 + 1.0)
                if 2 > hi_147:
                    c1_hi_141 = c1_162
                    c2_hi_143 = (1e309-1e309)
                else:
                    c1_hi_141 = c1_162
                    c2_hi_143 = lg_163 - 0.693147180559945 - lgamma(hi_147 - 2.0 + 1.0)
            if lam_p_s_91 <= 0.0:
                p0s_l_151 = 1.0
                p1s_l_153 = 0.0
                p2s_l_156 = 0.0
            else:
                log_lp_164 = log(lam_p_s_91)
                log_q_165 = log1p(-lam_p_s_91)
                p0s_l_151 = exp(hi_147 * log_q_165)
                p1s_l_153 = 0.0 if 1 > lo_148 else exp(c1_lo_142 + log_lp_164 + (lo_148 - 1.0) * log_q_165)
                p2s_l_156 = 0.0 if 2 > lo_148 else exp(c2_lo_144 + 2 * log_lp_164 + (lo_148 - 2.0) * log_q_165)
            if lam_p_d_90 <= 0.0:
                p0d_u_150 = 1.0
                p1d_u_152 = 0.0
                p2d_u_155 = 0.0
            else:
                log_lp_168 = log(lam_p_d_90)
                log_q_169 = log1p(-lam_p_d_90)
                p0d_u_150 = exp(lo_148 * log_q_169)
                p1d_u_152 = 0.0 if 1 > hi_147 else exp(c1_hi_141 + log_lp_168 + (hi_147 - 1.0) * log_q_169)
                p2d_u_155 = 0.0 if 2 > hi_147 else exp(c2_hi_143 + 2 * log_lp_168 + (hi_147 - 2.0) * log_q_169)
            if bound_7 == 0:
                vac_159 = p0s_l_151 * p2d_u_155 - p0d_u_150 * p2s_l_156
                den_146 = p1d_u_152 * p2s_l_156 - p1s_l_153 * p2d_u_155
            else:
                if lam_p_s_91 <= 0.0:
                    _envelope_172_2 = 0.0
                else:
                    _envelope_172_2 = 0.0 if 2 > hi_147 else exp(c2_hi_143 + 2 * log(lam_p_s_91) + (hi_147 - 2.0) * log1p(-lam_p_s_91))
                if lam_p_d_90 <= 0.0:
                    _envelope_177_2 = 0.0
                else:
                    _envelope_177_2 = 0.0 if 2 > lo_148 else exp(c2_lo_144 + 2 * log(lam_p_d_90) + (lo_148 - 2.0) * log1p(-lam_p_d_90))
                if bound_7 == 1:
                    vac_159 = p0s_l_151 * _envelope_177_2 - p0d_u_150 * p0s_l_151
                else:
                    vac_159 = p0s_l_151 * _envelope_177_2 - p0d_u_150 * _envelope_172_2
                den_146 = p1d_u_152 * _envelope_172_2 - p1s_l_153 * _envelope_177_2
            if lo_148 >= 320.0:
                corr_145 = 0.0
            elif delta_10 <= 0.0 or p2s_l_156 <= 0.0 or lam_p_d_90 >= 1.0:
                corr_145 = 0.0
            else:
                shared_1 = 2.0 * delta_10 * m_a
                lc_182 = log(shared_1) + (shared_1 - 1.0) * log1p(-lam_p_d_90) + log(p2s_l_156) - lgamma(lo_148 + 2.0)
                if lc_182 < -700.0:
                    corr_145 = 0.0
                else:
                    corr_145 = exp(lc_182)
            q1u_158 = 0.0
            if den_146 > 0.0:
                q1u_158 = p1s_l_153 * (qu_d_low_109 * p2s_l_156 - qu_s_up_110 * p2d_u_155 + qu_v_up_138 * vac_159 - corr_145) / den_146
                if q1u_158 < 0.0:
                    q1u_158 = 0.0
                elif q1u_158 > qu_s_up_110:
                    q1u_158 = qu_s_up_110
            if q1u_158 <= 0.0:
                q1u_104 = 0.0
                e1u_77 = (1e309-1e309)
            else:
                e1u_184 = (eq_s_up_139 - p0s_l_151 * eq_v_low_89) / q1u_158
                q1u_104 = q1u_158
                e1u_77 = 0.0 if e1u_184 < 0.0 else e1u_184
            if e_s_80 <= 0.0 or e_s_80 >= 1.0:
                h2_kernel_185 = 0.0
            else:
                shared_2 = 1.0 - e_s_80
                h2_kernel_185 = -e_s_80 * log2(e_s_80) - shared_2 * log2(shared_2)
            if q1u_104 > 0.0:
                x_188 = e1u_77 if e1u_77 < 0.5 else 0.5
                if x_188 <= 0.0 or x_188 >= 1.0:
                    h2_kernel_187 = 0.0
                else:
                    shared_3 = 1.0 - x_188
                    h2_kernel_187 = -x_188 * log2(x_188) - shared_3 * log2(shared_3)
                _privacy_186 = pu_s_102 * q1u_104 * (1.0 - h2_kernel_187)
            else:
                _privacy_186 = 0.0
            rate_111 = 0.5 * 0.5 * (-q_s_106 * bound_8 * h2_kernel_185 + _privacy_186)
        if status_113 == 0.0:
            return rate_111
        elif status_113 == 3.0:
            guide_190 = min(pu_s_102, pu_d_101, pu_v_103)
            return -1000000.0 + (guide_190 if guide_190 == guide_190 else -1.0)
        else:
            return -1000000.0
    return objective_decoy
