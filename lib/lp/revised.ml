open Ipet_num

type vstatus = Basic | Lower | Upper

type snapshot = { sbasis : int array; sstatus : vstatus array }

type solution = {
  value : Rat.t;
  xstruct : Rat.t array;
  snapshot : snapshot;
}

type verdict = Optimal of solution | Infeasible | Unbounded

type run = {
  verdict : verdict;
  pivots : int;
  refactors : int;
  from_start : bool;
}

exception Stuck

type state = {
  inst : Sparse.t;
  lo : Rat.t array;          (* ncols *)
  up : Rat.t option array;   (* ncols *)
  status : vstatus array;    (* ncols *)
  basis : int array;         (* nrows: basic column of each row *)
  beta : Rat.t array;        (* nrows: values of the basic variables *)
  fac : Basis.t;
  refactor_every : int;
  mutable updates : int;     (* eta updates since the last refactorization *)
  mutable npivots : int;
  mutable nrefactors : int;
  (* dense scratch, length nrows *)
  y : Rat.t array;
  y2 : Rat.t array;
  alpha : Rat.t array;
}

let nonbasic_value st j =
  match st.status.(j) with
  | Lower -> st.lo.(j)
  | Upper -> (match st.up.(j) with Some u -> u | None -> assert false)
  | Basic -> assert false

(* a variable pinned by equal bounds can never usefully enter *)
let fixed st j =
  match st.up.(j) with
  | Some u -> Rat.equal u st.lo.(j)
  | None -> false

let load_col st dst j =
  let c = st.inst.Sparse.cols.(j) in
  for k = 0 to Array.length c.Sparse.rows - 1 do
    dst.(c.Sparse.rows.(k)) <- c.Sparse.vals.(k)
  done

let maybe_refactor st =
  st.updates <- st.updates + 1;
  if st.updates >= st.refactor_every then begin
    Basis.refactor st.fac
      ~col_of:(fun j -> st.inst.Sparse.cols.(j))
      ~basis:st.basis;
    st.nrefactors <- st.nrefactors + 1;
    st.updates <- 0
  end

(* One primal iteration for entering column [q] moving in direction
   [increasing] ([true] = up from its lower bound). Basic values follow
   x_B = beta - d*t*alpha with d = +/-1 and t >= 0 the move length. *)
let primal_step st ~q ~increasing =
  let m = st.inst.Sparse.nrows in
  Array.fill st.alpha 0 m Rat.zero;
  load_col st st.alpha q;
  Basis.ftran st.fac st.alpha;
  (* ratio test: min blocking t; ties to the smallest blocking variable
     index (Bland), which for row blockers is the basic column — exactly
     the dense tableau's tie-break *)
  let best = ref None in (* (t, blocking var, [Some (row, leaves_at_upper)]) *)
  let consider t idx blocker =
    match !best with
    | None -> best := Some (t, idx, blocker)
    | Some (bt, bidx, _) ->
      let c = Rat.compare t bt in
      if c < 0 || (c = 0 && idx < bidx) then best := Some (t, idx, blocker)
  in
  for i = 0 to m - 1 do
    let a = st.alpha.(i) in
    if not (Rat.is_zero a) then begin
      let da = if increasing then a else Rat.neg a in
      let bi = st.basis.(i) in
      if Rat.sign da > 0 then
        (* x_Bi decreases, blocked at its lower bound *)
        consider (Rat.div (Rat.sub st.beta.(i) st.lo.(bi)) da) bi
          (Some (i, false))
      else
        (* x_Bi increases, blocked at its upper bound when finite *)
        match st.up.(bi) with
        | Some u ->
          consider (Rat.div (Rat.sub u st.beta.(i)) (Rat.neg da)) bi
            (Some (i, true))
        | None -> ()
    end
  done;
  (* the entering variable can also stop at its own opposite bound *)
  (match st.up.(q) with
   | Some u -> consider (Rat.sub u st.lo.(q)) q None
   | None -> ());
  match !best with
  | None -> `Unbounded
  | Some (t, _, blocker) ->
    let d = if increasing then Rat.one else Rat.minus_one in
    let dt = Rat.mul d t in
    (match blocker with
     | None ->
       (* bound flip: x_q jumps to its other bound, no basis change *)
       if not (Rat.is_zero t) then
         for i = 0 to m - 1 do
           if not (Rat.is_zero st.alpha.(i)) then
             st.beta.(i) <- Rat.sub st.beta.(i) (Rat.mul dt st.alpha.(i))
         done;
       st.status.(q) <- (if st.status.(q) = Lower then Upper else Lower)
     | Some (r, to_upper) ->
       let xq_new = Rat.add (nonbasic_value st q) dt in
       for i = 0 to m - 1 do
         if i <> r && not (Rat.is_zero st.alpha.(i)) then
           st.beta.(i) <- Rat.sub st.beta.(i) (Rat.mul dt st.alpha.(i))
       done;
       let leaving = st.basis.(r) in
       st.beta.(r) <- xq_new;
       st.basis.(r) <- q;
       st.status.(q) <- Basic;
       st.status.(leaving) <- (if to_upper then Upper else Lower);
       Basis.append st.fac ~pivot_row:r ~alpha:st.alpha;
       st.npivots <- st.npivots + 1;
       maybe_refactor st);
    `Step

(* one phase of maximization; [allowed j] filters enterable columns *)
let rec phase st ~cost ~allowed =
  let m = st.inst.Sparse.nrows and ncols = st.inst.Sparse.ncols in
  (* pricing vector y = B^-T c_B, recomputed each iteration *)
  for i = 0 to m - 1 do
    st.y.(i) <- cost.(st.basis.(i))
  done;
  Basis.btran st.fac st.y;
  (* Bland: smallest column with a favourable reduced cost *)
  let rec entering j =
    if j >= ncols then None
    else if st.status.(j) <> Basic && allowed j && not (fixed st j) then begin
      let cb = Rat.sub cost.(j) (Sparse.col_dot st.inst st.y j) in
      let s = Rat.sign cb in
      if st.status.(j) = Lower && s > 0 then Some (j, true)
      else if st.status.(j) = Upper && s < 0 then Some (j, false)
      else entering (j + 1)
    end
    else entering (j + 1)
  in
  match entering 0 with
  | None -> `Optimal
  | Some (q, increasing) ->
    (match primal_step st ~q ~increasing with
     | `Unbounded -> `Unbounded
     | `Step -> phase st ~cost ~allowed)

(* After a feasible phase 1, pivot zero-level basic artificials onto the
   first real column with a nonzero tableau entry in their row, exactly
   like the dense solver; rows admitting no such column are redundant and
   keep their artificial basic at level zero. *)
let drive_out st =
  let m = st.inst.Sparse.nrows in
  let art_start = st.inst.Sparse.art_start in
  for i = 0 to m - 1 do
    if st.basis.(i) >= art_start then begin
      (* rho = row i of B^-1 *)
      Array.fill st.y 0 m Rat.zero;
      st.y.(i) <- Rat.one;
      Basis.btran st.fac st.y;
      let rec find j =
        if j >= art_start then None
        else if st.status.(j) <> Basic
                && not (Rat.is_zero (Sparse.col_dot st.inst st.y j))
        then Some j
        else find (j + 1)
      in
      match find 0 with
      | None -> () (* redundant row; harmless to keep *)
      | Some j ->
        let m' = m in
        Array.fill st.alpha 0 m' Rat.zero;
        load_col st st.alpha j;
        Basis.ftran st.fac st.alpha;
        (* the artificial sits at zero, so the swap moves nothing: the
           entering column keeps its current nonbasic value (its lower OR
           upper bound), which becomes the row's basic value *)
        let leaving = st.basis.(i) in
        st.beta.(i) <- nonbasic_value st j;
        st.basis.(i) <- j;
        st.status.(j) <- Basic;
        st.status.(leaving) <- Lower;
        Basis.append st.fac ~pivot_row:i ~alpha:st.alpha;
        st.npivots <- st.npivots + 1;
        maybe_refactor st
    end
  done

let extract st ~cost =
  let inst = st.inst in
  let m = inst.Sparse.nrows in
  let nstruct = inst.Sparse.nstruct in
  let xstruct =
    Array.init nstruct (fun j ->
        if st.status.(j) = Basic then Rat.zero else nonbasic_value st j)
  in
  for i = 0 to m - 1 do
    if st.basis.(i) < nstruct then xstruct.(st.basis.(i)) <- st.beta.(i)
  done;
  let value = ref Rat.zero in
  for i = 0 to m - 1 do
    let c = cost.(st.basis.(i)) in
    if not (Rat.is_zero c) then value := Rat.add !value (Rat.mul c st.beta.(i))
  done;
  for j = 0 to inst.Sparse.ncols - 1 do
    if st.status.(j) <> Basic && not (Rat.is_zero cost.(j)) then begin
      let x = nonbasic_value st j in
      if not (Rat.is_zero x) then value := Rat.add !value (Rat.mul cost.(j) x)
    end
  done;
  { value = !value;
    xstruct;
    snapshot =
      { sbasis = Array.copy st.basis; sstatus = Array.copy st.status } }

let make_state ?(refactor_every = 64) inst ~lo ~up ~status ~basis ~beta =
  let m = inst.Sparse.nrows in
  { inst; lo; up; status; basis; beta;
    fac = Basis.create m;
    refactor_every;
    updates = 0; npivots = 0; nrefactors = 0;
    y = Array.make m Rat.zero;
    y2 = Array.make m Rat.zero;
    alpha = Array.make m Rat.zero }

let full_cost inst cost =
  let cost_full = Array.make inst.Sparse.ncols Rat.zero in
  Array.blit cost 0 cost_full 0 inst.Sparse.nstruct;
  cost_full

(* Crash the support of point [x] (one value per structural column) into
   the identity basis: every structural column with a positive value and
   every slack of a row the point leaves slack enters, in column order, on
   a row whose basic column is outside the support — a basic artificial
   first, then the smallest row. An entry is one FTRAN and one eta append;
   nothing is priced. When every support column is placed, the refactored
   basis reproduces [x] if [x] is a feasible vertex; the caller starts
   phase 2 from it when it is primal feasible with every basic artificial
   at zero. [false] (support dependent, or basis infeasible) leaves [st]
   to be discarded. *)
let crash st x =
  let inst = st.inst in
  let m = inst.Sparse.nrows and nstruct = inst.Sparse.nstruct in
  let art_start = inst.Sparse.art_start in
  let act = Array.make m Rat.zero in
  for j = 0 to nstruct - 1 do
    if not (Rat.is_zero x.(j)) then begin
      let c = inst.Sparse.cols.(j) in
      for k = 0 to Array.length c.Sparse.rows - 1 do
        let r = c.Sparse.rows.(k) in
        act.(r) <- Rat.add act.(r) (Rat.mul x.(j) c.Sparse.vals.(k))
      done
    end
  done;
  (* a slack column is a unit column [v·e_r], so [a·x + v·s = b] gives
     its value *)
  let supp =
    Array.init inst.Sparse.ncols (fun j ->
        if j < nstruct then Rat.sign x.(j) > 0
        else if j < art_start then begin
          let c = inst.Sparse.cols.(j) in
          let r = c.Sparse.rows.(0) in
          Rat.sign
            (Rat.div (Rat.sub inst.Sparse.rhs.(r) act.(r)) c.Sparse.vals.(0))
          > 0
        end
        else false)
  in
  let rec enter j =
    if j >= art_start then true
    else if (not supp.(j)) || st.status.(j) = Basic then enter (j + 1)
    else begin
      Array.fill st.alpha 0 m Rat.zero;
      load_col st st.alpha j;
      Basis.ftran st.fac st.alpha;
      let r = ref (-1) in
      for i = 0 to m - 1 do
        let bi = st.basis.(i) in
        if (not (Rat.is_zero st.alpha.(i))) && not supp.(bi)
           && (!r < 0 || (bi >= art_start && st.basis.(!r) < art_start))
        then r := i
      done;
      if !r < 0 then false (* dependent on the placed support: no vertex *)
      else begin
        let r = !r in
        let leaving = st.basis.(r) in
        st.basis.(r) <- j;
        st.status.(j) <- Basic;
        st.status.(leaving) <- Lower;
        Basis.append st.fac ~pivot_row:r ~alpha:st.alpha;
        st.npivots <- st.npivots + 1;
        maybe_refactor st;
        enter (j + 1)
      end
    end
  in
  enter 0
  && begin
    (* every entry pivoted on a nonzero, so this is a basis *)
    Basis.refactor st.fac
      ~col_of:(fun j -> inst.Sparse.cols.(j))
      ~basis:st.basis;
    st.nrefactors <- st.nrefactors + 1;
    st.updates <- 0;
    (* every nonbasic column sits at its lower bound 0 *)
    Array.blit inst.Sparse.rhs 0 st.beta 0 m;
    Basis.ftran st.fac st.beta;
    let ok i =
      let bi = st.basis.(i) and b = st.beta.(i) in
      Rat.sign b >= 0
      && (bi < art_start || Rat.is_zero b)
      && (match st.up.(bi) with
          | Some u -> Rat.compare b u <= 0
          | None -> true)
    in
    let rec all i = i >= m || (ok i && all (i + 1)) in
    all 0
  end

let solve_primal ?upper ?refactor_every ?start inst ~cost =
  let m = inst.Sparse.nrows and ncols = inst.Sparse.ncols in
  let nstruct = inst.Sparse.nstruct in
  let lo = Array.make ncols Rat.zero in
  let up = Array.make ncols None in
  (match upper with Some u -> Array.blit u 0 up 0 nstruct | None -> ());
  let identity () =
    let status = Array.make ncols Lower in
    let basis = Array.copy inst.Sparse.row_basis in
    Array.iter (fun j -> status.(j) <- Basic) basis;
    make_state ?refactor_every inst ~lo ~up ~status ~basis
      ~beta:(Array.copy inst.Sparse.rhs)
  in
  let st, from_start =
    match start with
    | None -> (identity (), false)
    | Some x ->
      let st = identity () in
      if crash st x then (st, true)
      else begin
        (* fall back to the cold start; the crash's work still counts *)
        let cold = identity () in
        cold.npivots <- st.npivots;
        cold.nrefactors <- st.nrefactors;
        (cold, false)
      end
  in
  let cost_full = full_cost inst cost in
  let finish verdict =
    { verdict; pivots = st.npivots; refactors = st.nrefactors; from_start }
  in
  let art_start = inst.Sparse.art_start in
  let feasible =
    if from_start then begin
      drive_out st;
      true
    end
    else if art_start = ncols then true
    else begin
      (* phase 1: maximize -sum(artificials) up to 0 *)
      let cost1 = Array.make ncols Rat.zero in
      for j = art_start to ncols - 1 do
        cost1.(j) <- Rat.minus_one
      done;
      (match phase st ~cost:cost1 ~allowed:(fun _ -> true) with
       | `Unbounded -> assert false (* phase-1 objective is bounded by 0 *)
       | `Optimal -> ());
      let art_level = ref Rat.zero in
      for i = 0 to m - 1 do
        if st.basis.(i) >= art_start then
          art_level := Rat.add !art_level st.beta.(i)
      done;
      if Rat.sign !art_level > 0 then false
      else begin
        drive_out st;
        true
      end
    end
  in
  if not feasible then finish Infeasible
  else
    match phase st ~cost:cost_full ~allowed:(fun j -> j < art_start) with
    | `Unbounded -> finish Unbounded
    | `Optimal -> finish (Optimal (extract st ~cost:cost_full))

(* Row prices of a finished solve: y = B^-T c_B for the snapshot's basis,
   one refactorization plus one BTRAN. This is the dual recovery the
   certificate producer uses; it never runs during the solve itself. *)
let duals inst ~cost (snap : snapshot) =
  let m = inst.Sparse.nrows in
  let fac = Basis.create m in
  Basis.refactor fac
    ~col_of:(fun j -> inst.Sparse.cols.(j))
    ~basis:snap.sbasis;
  let cost_full = full_cost inst cost in
  let y = Array.make m Rat.zero in
  for i = 0 to m - 1 do
    y.(i) <- cost_full.(snap.sbasis.(i))
  done;
  Basis.btran fac y;
  y

let solve_dual ?refactor_every ?max_iters inst ~cost ~lower ~upper ~warm =
  let m = inst.Sparse.nrows and ncols = inst.Sparse.ncols in
  let nstruct = inst.Sparse.nstruct in
  let art_start = inst.Sparse.art_start in
  let max_iters =
    match max_iters with Some n -> n | None -> 1000 + 20 * m
  in
  let contradictory = ref false in
  for j = 0 to nstruct - 1 do
    match upper.(j) with
    | Some u when Rat.compare lower.(j) u > 0 -> contradictory := true
    | _ -> ()
  done;
  if !contradictory then
    { verdict = Infeasible; pivots = 0; refactors = 0; from_start = false }
  else begin
    let lo = Array.make ncols Rat.zero in
    let up = Array.make ncols None in
    Array.blit lower 0 lo 0 nstruct;
    Array.blit upper 0 up 0 nstruct;
    let status = Array.copy warm.sstatus in
    let basis = Array.copy warm.sbasis in
    let st =
      make_state ?refactor_every inst ~lo ~up ~status ~basis
        ~beta:(Array.make m Rat.zero)
    in
    (try
       Basis.refactor st.fac
         ~col_of:(fun j -> inst.Sparse.cols.(j))
         ~basis
     with Basis.Singular -> raise Stuck);
    st.nrefactors <- 1;
    (* beta = B^-1 (b - N x_N) *)
    for i = 0 to m - 1 do
      st.beta.(i) <- inst.Sparse.rhs.(i)
    done;
    for j = 0 to ncols - 1 do
      if st.status.(j) <> Basic then begin
        let x = nonbasic_value st j in
        if not (Rat.is_zero x) then begin
          let c = inst.Sparse.cols.(j) in
          for k = 0 to Array.length c.Sparse.rows - 1 do
            let r = c.Sparse.rows.(k) in
            st.beta.(r) <- Rat.sub st.beta.(r) (Rat.mul x c.Sparse.vals.(k))
          done
        end
      end
    done;
    Basis.ftran st.fac st.beta;
    let cost_full = full_cost inst cost in
    let finish verdict =
      { verdict; pivots = st.npivots; refactors = st.nrefactors;
        from_start = false }
    in
    let rec loop iter =
      if iter > max_iters then raise Stuck;
      (* leaving: most Bland-like deterministic choice — among rows whose
         basic variable violates a bound, the smallest basic column *)
      let r = ref (-1) and leaves_above = ref false in
      for i = 0 to m - 1 do
        let bi = st.basis.(i) in
        let below = Rat.compare st.beta.(i) st.lo.(bi) < 0 in
        let above =
          (not below)
          && (match st.up.(bi) with
              | Some u -> Rat.compare st.beta.(i) u > 0
              | None -> false)
        in
        if (below || above) && (!r = -1 || bi < st.basis.(!r)) then begin
          r := i;
          leaves_above := above
        end
      done;
      if !r = -1 then finish (Optimal (extract st ~cost:cost_full))
      else begin
        let r = !r in
        let above = !leaves_above in
        (* rho = row r of B^-1 *)
        Array.fill st.y 0 m Rat.zero;
        st.y.(r) <- Rat.one;
        Basis.btran st.fac st.y;
        (* reduced costs of candidates need y2 = B^-T c_B *)
        for i = 0 to m - 1 do
          st.y2.(i) <- cost_full.(st.basis.(i))
        done;
        Basis.btran st.fac st.y2;
        (* dual ratio test over allowed nonbasic columns: the entering
           move must push x_Br back toward the violated bound while
           keeping every reduced-cost sign condition; minimize
           |cbar_j|/|alpha_rj|, ties to the smallest column *)
        let best = ref None in (* (ratio, j, alpha_rj) *)
        for j = 0 to art_start - 1 do
          if st.status.(j) <> Basic && not (fixed st j) then begin
            let arj = Sparse.col_dot st.inst st.y j in
            let s = Rat.sign arj in
            if s <> 0 then begin
              let candidate =
                if above then
                  (st.status.(j) = Lower && s > 0)
                  || (st.status.(j) = Upper && s < 0)
                else
                  (st.status.(j) = Lower && s < 0)
                  || (st.status.(j) = Upper && s > 0)
              in
              if candidate then begin
                let cb =
                  Rat.sub cost_full.(j) (Sparse.col_dot st.inst st.y2 j)
                in
                let ratio = Rat.div (Rat.abs cb) (Rat.abs arj) in
                match !best with
                | None -> best := Some (ratio, j, arj)
                | Some (bratio, bj, _) ->
                  let c = Rat.compare ratio bratio in
                  if c < 0 || (c = 0 && j < bj) then
                    best := Some (ratio, j, arj)
              end
            end
          end
        done;
        match !best with
        | None ->
          (* the violated row cannot be repaired: primal infeasible *)
          finish Infeasible
        | Some (_, q, arq) ->
          Array.fill st.alpha 0 m Rat.zero;
          load_col st st.alpha q;
          Basis.ftran st.fac st.alpha;
          let bi = st.basis.(r) in
          let target =
            if above then
              match st.up.(bi) with
              | Some u -> u
              | None ->
                (* [above] promised an upper bound for the leaving basic;
                   a warm snapshot that does not match the problem (stale
                   bounds, wrong statuses) can break that promise. That is
                   a bad warm start, not a proof of anything — give up on
                   this start and let the caller fall back to a cold
                   primal solve rather than abort the process *)
                raise Stuck
            else st.lo.(bi)
          in
          let t = Rat.div (Rat.sub st.beta.(r) target) arq in
          let xq_new = Rat.add (nonbasic_value st q) t in
          for i = 0 to m - 1 do
            if i <> r && not (Rat.is_zero st.alpha.(i)) then
              st.beta.(i) <- Rat.sub st.beta.(i) (Rat.mul t st.alpha.(i))
          done;
          st.beta.(r) <- xq_new;
          st.basis.(r) <- q;
          st.status.(q) <- Basic;
          st.status.(bi) <- (if above then Upper else Lower);
          Basis.append st.fac ~pivot_row:r ~alpha:st.alpha;
          st.npivots <- st.npivots + 1;
          maybe_refactor st;
          loop (iter + 1)
      end
    in
    loop 0
  end
