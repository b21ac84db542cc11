package server

import "net/http"

// handleIndex serves the embedded single-page GUI: the input screen
// (Figure 3a), repair screen (3b) and explanation screen (3c).
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}

// indexHTML is the GUI. It exercises the same JSON API that the tests and
// the CLI use; no server-side templating is involved.
const indexHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>T-REx: Table Repair Explanations</title>
<style>
  body { font-family: system-ui, sans-serif; margin: 2rem; color: #222; }
  h1 { font-size: 1.4rem; }
  .screens { display: flex; gap: 2rem; flex-wrap: wrap; }
  .screen { border: 1px solid #ccc; border-radius: 8px; padding: 1rem; min-width: 22rem; flex: 1; }
  textarea { width: 100%; font-family: monospace; font-size: 0.85rem; }
  table { border-collapse: collapse; margin-top: .5rem; }
  td, th { border: 1px solid #bbb; padding: .25rem .5rem; font-size: .85rem; }
  td.repaired { background: #cfe8ff; cursor: pointer; }
  td.selected { outline: 2px solid #0366d6; }
  .rank { margin: .15rem 0; padding: .2rem .4rem; border-radius: 4px; }
  button { margin-top: .5rem; }
  .err { color: #b00020; white-space: pre-wrap; }
</style>
</head>
<body>
<h1>T-REx: Table Repair Explanations</h1>
<div class="screens">
  <div class="screen" id="input-screen">
    <h2>1 · Input</h2>
    <label>Dirty table (CSV)</label>
    <textarea id="csv" rows="9">Team,City,Country,League,Year,Place
Barcelona,Barcelona,Spain,La Liga,2019,1
Atletico Madrid,Madrid,Spain,La Liga,2019,2
Real Madrid,Madrid,Spain,La Liga,2019,3
Sevilla,Sevilla,Spian,La Liga,2019,4
Real Madrid,Capital,España,La Liga,2018,1
Real Madrid,Madrid,Spain,La Liga,2017,1</textarea>
    <label>Denial constraints</label>
    <textarea id="dcs" rows="5">C1: !(t1.Team = t2.Team & t1.City != t2.City)
C2: !(t1.City = t2.City & t1.Country != t2.Country)
C3: !(t1.League = t2.League & t1.Country != t2.Country)
C4: !(t1.Team != t2.Team & t1.Year = t2.Year & t1.League = t2.League & t1.Place = t2.Place)</textarea>
    <label>Algorithm <select id="alg"></select></label>
    <br><button id="repair">Repair</button>
    <div class="err" id="input-err"></div>
  </div>
  <div class="screen" id="repair-screen">
    <h2>2 · Repair</h2>
    <p>Repaired cells are highlighted; click one, then Explain. Hover shows the dirty value.</p>
    <div id="clean-table"></div>
    <label>kind
      <select id="kind">
        <option value="constraints" selected>constraints</option>
        <option value="cells">cells</option>
        <option value="cells-topk">cells (top-5, adaptive)</option>
        <option value="rows">rows</option>
        <option value="columns">columns</option>
        <option value="interaction">constraint interactions</option>
      </select>
    </label>
    <button id="explain" disabled>Explain</button>
    <div class="err" id="repair-err"></div>
  </div>
  <div class="screen" id="explain-screen">
    <h2>3 · Explanation</h2>
    <div id="ranking"></div>
  </div>
</div>
<script>
let sessionId = null, selectedCell = null, dirtyRows = null;
const $ = (id) => document.getElementById(id);

async function api(path, body) {
  const res = await fetch(path, body === undefined ? {} : {
    method: 'POST', headers: {'Content-Type': 'application/json'},
    body: JSON.stringify(body)});
  const data = await res.json();
  if (!res.ok) throw new Error(data.error || res.statusText);
  return data;
}

async function loadAlgs() {
  const data = await api('/api/algorithms');
  $('alg').innerHTML = data.algorithms.map(a =>
    '<option' + (a === 'algorithm1' ? ' selected' : '') + '>' + a + '</option>').join('');
}

$('repair').onclick = async () => {
  $('input-err').textContent = ''; $('repair-err').textContent = '';
  try {
    const sess = await api('/api/session', {
      csv: $('csv').value, dcs: $('dcs').value, algorithm: $('alg').value});
    sessionId = sess.id; dirtyRows = sess.table.rows;
    const rep = await api('/api/session/' + sessionId + '/repair', {});
    renderClean(sess.table.columns, rep.clean.rows, new Set(rep.repaired));
  } catch (e) { $('input-err').textContent = e.message; }
};

function cellName(r, c, columns) { return 't' + (r + 1) + '[' + columns[c] + ']'; }

function renderClean(columns, rows, repaired) {
  const tbl = document.createElement('table');
  tbl.innerHTML = '<tr>' + columns.map(c => '<th>' + c + '</th>').join('') + '</tr>';
  rows.forEach((row, r) => {
    const tr = document.createElement('tr');
    row.forEach((val, c) => {
      const td = document.createElement('td');
      td.textContent = val;
      const name = cellName(r, c, columns);
      if (repaired.has(name)) {
        td.className = 'repaired';
        td.title = 'was: ' + dirtyRows[r][c];
        td.onclick = () => {
          selectedCell = name;
          document.querySelectorAll('td.selected').forEach(x => x.classList.remove('selected'));
          td.classList.add('selected');
          $('explain').disabled = false;
        };
      }
      tr.appendChild(td);
    });
    tbl.appendChild(tr);
  });
  $('clean-table').replaceChildren(tbl);
  $('explain').disabled = true; selectedCell = null;
}

$('explain').onclick = async () => {
  $('repair-err').textContent = '';
  const kind = $('kind').value;
  try {
    const rep = await api('/api/session/' + sessionId + '/explain', {cell: selectedCell, kind});
    renderRanking(rep);
  } catch (e) { $('repair-err').textContent = e.message; }
};

function renderRanking(rep) {
  const max = Math.max(...rep.entries.map(e => e.Shapley), 1e-9);
  $('ranking').innerHTML = '<p>Repair of <b>' + rep.cell + '</b> → <b>' + rep.target +
    '</b> (' + rep.algorithm + ')</p>' +
    rep.entries.map(e => {
      const green = Math.round(232 - 160 * Math.max(e.Shapley, 0) / max);
      return '<div class="rank" style="background: rgb(' + green + ',232,' + green + ')" title="' +
        e.Shapley.toFixed(4) + (e.Samples ? ' ± ' + (e.CI95 === null ? '∞' : e.CI95.toFixed(4)) : '') + '">' +
        e.Name + ' — ' + e.Shapley.toFixed(4) + '</div>';
    }).join('');
}

loadAlgs();
</script>
</body>
</html>
`
